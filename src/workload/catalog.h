// Media catalog: the set of titles a server stores, their bit-rates,
// durations, sizes, and byte placement on the disk. The cache manager
// decides which titles fit on the MEMS bank from this inventory.

#ifndef MEMSTREAM_WORKLOAD_CATALOG_H_
#define MEMSTREAM_WORKLOAD_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace memstream::workload {

/// One stored title.
struct Title {
  std::int64_t id = 0;
  std::string name;
  BytesPerSecond bit_rate = 0;
  Seconds duration = 0;
  Bytes size = 0;          ///< bit_rate * duration
  Bytes disk_offset = 0;   ///< placement on the disk (contiguous layout)
};

/// An immutable inventory of titles laid out contiguously on disk in id
/// order (title 0 is by convention the most popular).
class Catalog {
 public:
  /// Builds `num_titles` identical-shape titles of the given bit-rate and
  /// duration — the paper's homogeneous-catalog assumption.
  static Result<Catalog> Uniform(std::int64_t num_titles,
                                 BytesPerSecond bit_rate, Seconds duration);

  std::int64_t size() const {
    return static_cast<std::int64_t>(titles_.size());
  }
  const Title& title(std::int64_t id) const {
    return titles_[static_cast<std::size_t>(id)];
  }
  const std::vector<Title>& titles() const { return titles_; }

  /// Sum of all title sizes (the Sizedisk of Eq. 11's p computation).
  Bytes TotalSize() const { return total_size_; }

  /// Ids of the most popular titles (lowest ids) whose cumulative size
  /// fits in `capacity` bytes — the offline cache-selection step (§3.2:
  /// the cache is updated "off-line, during service down-time").
  std::vector<std::int64_t> SelectCacheResidents(Bytes capacity) const;

 private:
  explicit Catalog(std::vector<Title> titles);

  std::vector<Title> titles_;
  Bytes total_size_ = 0;
};

}  // namespace memstream::workload

#endif  // MEMSTREAM_WORKLOAD_CATALOG_H_
