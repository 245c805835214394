#include "obs/stream_journal.h"

#include <algorithm>

namespace memstream::obs {

const char* StreamPhaseName(StreamPhase phase) {
  switch (phase) {
    case StreamPhase::kAdmitted:
      return "admitted";
    case StreamPhase::kPlaying:
      return "playing";
    case StreamPhase::kDegraded:
      return "degraded";
    case StreamPhase::kShed:
      return "shed";
    case StreamPhase::kDeparted:
      return "departed";
  }
  return "unknown";
}

const char* StreamEventKindName(StreamEventKind kind) {
  switch (kind) {
    case StreamEventKind::kAdmitted:
      return "admitted";
    case StreamEventKind::kPlaying:
      return "playing";
    case StreamEventKind::kDegraded:
      return "degraded";
    case StreamEventKind::kShed:
      return "shed";
    case StreamEventKind::kReadmitted:
      return "readmitted";
    case StreamEventKind::kDeparted:
      return "departed";
  }
  return "unknown";
}

namespace {

/// Buckets of the per-stream occupancy histogram.
constexpr std::size_t kOccupancyBuckets = 32;

// Occupancy histogram range. A stream admitted under a known envelope
// uses [0, 1.25*envelope) so the top quarter of buckets resolves
// near-bound behaviour and a breach still lands inside the range; with
// no envelope known, fall back to a few seconds of the stream's rate.
double OccupancyHi(double bit_rate, Bytes envelope) {
  if (envelope > 0) return envelope * 1.25;
  if (bit_rate > 0) return bit_rate * 4.0;
  return 1.0;
}

}  // namespace

StreamJournalEntry::StreamJournalEntry(std::int64_t id, double rate,
                                       Bytes envelope,
                                       const StreamJournalOptions& options)
    : stream_id(id),
      bit_rate(rate),
      envelope_bytes(envelope),
      occupancy(0.0, OccupancyHi(rate, envelope), kOccupancyBuckets) {
  events.reserve(std::max<std::size_t>(options.events_per_stream, 2));
}

StreamJournal::StreamJournal(StreamJournalOptions options)
    : options_(options) {
  options_.events_per_stream =
      std::max<std::size_t>(options_.events_per_stream, 2);
}

std::size_t StreamJournal::EnsureStream(std::int64_t stream_id,
                                        double bit_rate, Bytes envelope_bytes,
                                        double t) {
  auto it = slot_of_.find(stream_id);
  if (it != slot_of_.end()) return it->second;
  const std::size_t slot = entries_.size();
  entries_.emplace_back(stream_id, bit_rate, envelope_bytes, options_);
  slot_of_.emplace(stream_id, slot);
  Append(entries_.back(), t, StreamEventKind::kAdmitted, 0);
  return slot;
}

std::ptrdiff_t StreamJournal::SlotOf(std::int64_t stream_id) const {
  auto it = slot_of_.find(stream_id);
  if (it == slot_of_.end()) return -1;
  return static_cast<std::ptrdiff_t>(it->second);
}

void StreamJournal::Append(StreamJournalEntry& e, double t,
                           StreamEventKind kind, double detail) {
  if (e.events.size() < e.events.capacity()) {
    e.events.push_back(StreamEvent{t, kind, detail});
  } else {
    ++e.events_dropped;
  }
}

void StreamJournal::RecordIo(std::size_t slot, double t, Bytes bytes,
                             Bytes level) {
  StreamJournalEntry& e = entries_[slot];
  ++e.ios;
  e.bytes += bytes;
  e.peak_level_bytes = std::max(e.peak_level_bytes, level);
  e.occupancy.Add(level);
  if (e.phase == StreamPhase::kAdmitted) {
    e.phase = StreamPhase::kPlaying;
    Append(e, t, StreamEventKind::kPlaying, 0);
  }
}

void StreamJournal::RecordIoSummary(std::size_t slot, double t,
                                    std::int64_t ios, Bytes bytes,
                                    Bytes peak_level) {
  StreamJournalEntry& e = entries_[slot];
  e.ios += ios;
  e.bytes += bytes;
  e.peak_level_bytes = std::max(e.peak_level_bytes, peak_level);
  e.occupancy.Add(peak_level);
  if (ios > 0 && e.phase == StreamPhase::kAdmitted) {
    e.phase = StreamPhase::kPlaying;
    Append(e, t, StreamEventKind::kPlaying, 0);
  }
}

void StreamJournal::RecordUnderflows(std::size_t slot, double t,
                                     std::int64_t count) {
  (void)t;
  entries_[slot].underflows += count;
}

void StreamJournal::MarkDegraded(std::size_t slot, double t, double detail) {
  StreamJournalEntry& e = entries_[slot];
  if (e.phase == StreamPhase::kDeparted) return;
  ++e.degrades;
  e.phase = StreamPhase::kDegraded;
  Append(e, t, StreamEventKind::kDegraded, detail);
}

void StreamJournal::MarkShed(std::size_t slot, double t) {
  StreamJournalEntry& e = entries_[slot];
  if (e.phase == StreamPhase::kDeparted) return;
  ++e.sheds;
  e.phase = StreamPhase::kShed;
  Append(e, t, StreamEventKind::kShed, 0);
}

void StreamJournal::MarkReadmitted(std::size_t slot, double t) {
  StreamJournalEntry& e = entries_[slot];
  if (e.phase == StreamPhase::kDeparted) return;
  ++e.readmits;
  e.phase = StreamPhase::kPlaying;
  Append(e, t, StreamEventKind::kReadmitted, 0);
}

void StreamJournal::MarkDeparted(std::size_t slot, double t) {
  StreamJournalEntry& e = entries_[slot];
  if (e.phase == StreamPhase::kDeparted) return;
  e.phase = StreamPhase::kDeparted;
  Append(e, t, StreamEventKind::kDeparted, 0);
}

void StreamJournal::Finalize(double t) {
  for (std::size_t i = 0; i < entries_.size(); ++i) MarkDeparted(i, t);
}

StreamJournalSummary StreamJournal::Summarize() const {
  StreamJournalSummary s;
  s.count = static_cast<std::int64_t>(entries_.size());
  for (const auto& e : entries_) {
    if (e.phase == StreamPhase::kDeparted) ++s.departed;
    // Departure ends the run, not the shed: a stream that departs shed
    // is still shed.
    if (e.sheds > e.readmits) ++s.still_shed;
    if (e.sheds > 0) ++s.shed;
    if (e.readmits > 0) ++s.readmitted;
    if (e.degrades > 0) ++s.degraded;
    if (e.underflows > 0) ++s.underflow_streams;
    s.total_ios += e.ios;
    s.total_underflows += e.underflows;
    s.events_dropped += e.events_dropped;
    s.min_headroom = std::min(s.min_headroom, e.headroom());
  }
  return s;
}

void StreamJournal::PublishSummary(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const StreamJournalSummary s = Summarize();
  metrics->gauge("stream.count")->Set(static_cast<double>(s.count));
  metrics->gauge("stream.departed")->Set(static_cast<double>(s.departed));
  metrics->gauge("stream.shed")->Set(static_cast<double>(s.shed));
  metrics->gauge("stream.still_shed")->Set(static_cast<double>(s.still_shed));
  metrics->gauge("stream.readmitted")
      ->Set(static_cast<double>(s.readmitted));
  metrics->gauge("stream.degraded")->Set(static_cast<double>(s.degraded));
  metrics->gauge("stream.underflow_streams")
      ->Set(static_cast<double>(s.underflow_streams));
  metrics->gauge("stream.total_ios")->Set(static_cast<double>(s.total_ios));
  metrics->gauge("stream.total_underflows")
      ->Set(static_cast<double>(s.total_underflows));
  metrics->gauge("stream.events_dropped")
      ->Set(static_cast<double>(s.events_dropped));
  metrics->gauge("stream.min_headroom")->Set(s.min_headroom);
  metrics->SetHelp("stream.min_headroom",
                   "Tightest per-stream DRAM headroom vs the Theorem-1/2 "
                   "envelope (1 - peak/envelope; negative = breach)");
  metrics->SetHelp("stream.shed",
                   "Streams shed by the degradation manager at least once");
}

}  // namespace memstream::obs
