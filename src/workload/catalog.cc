#include "workload/catalog.h"

namespace memstream::workload {

Catalog::Catalog(std::vector<Title> titles) : titles_(std::move(titles)) {
  Bytes offset = 0;
  for (auto& t : titles_) {
    t.disk_offset = offset;
    offset += t.size;
  }
  total_size_ = offset;
}

Result<Catalog> Catalog::Uniform(std::int64_t num_titles,
                                 BytesPerSecond bit_rate, Seconds duration) {
  if (num_titles < 1) {
    return Status::InvalidArgument("num_titles must be >= 1");
  }
  if (bit_rate <= 0 || duration <= 0) {
    return Status::InvalidArgument("bit_rate and duration must be > 0");
  }
  std::vector<Title> titles;
  titles.reserve(static_cast<std::size_t>(num_titles));
  for (std::int64_t i = 0; i < num_titles; ++i) {
    Title t;
    t.id = i;
    t.name = "title-" + std::to_string(i);
    t.bit_rate = bit_rate;
    t.duration = duration;
    t.size = bit_rate * duration;
    titles.push_back(std::move(t));
  }
  return Catalog(std::move(titles));
}

std::vector<std::int64_t> Catalog::SelectCacheResidents(
    Bytes capacity) const {
  std::vector<std::int64_t> residents;
  Bytes used = 0;
  for (const auto& t : titles_) {
    if (used + t.size > capacity) break;
    residents.push_back(t.id);
    used += t.size;
  }
  return residents;
}

}  // namespace memstream::workload
