#ifndef RECYCLEDB_OBS_EVENT_RING_H_
#define RECYCLEDB_OBS_EVENT_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace recycledb::obs {

/// Governance/maintenance events worth keeping a short history of. These
/// are RARE relative to query traffic (budget borrows, pressure sheds, plan
/// evictions, commit-driven pool maintenance), which is why a mutex-guarded
/// ring is cheap enough — the query hot paths never record events.
enum class EventKind : uint8_t {
  kBorrow,      ///< a pool stripe grew beyond its fair share
  kShed,        ///< pressure epoch: a stripe evicted down to its base share
  kSlack,       ///< slack epoch: held-above-usage capacity returned
  kPlanEvict,   ///< plan cache dropped an LRU entry for capacity
  kInvalidate,  ///< commit/DDL invalidated pool + plan-cache state
  kPropagate,   ///< insert-only commit refreshed pool entries (§6.3)
  kCancel,      ///< a client cancelled an in-flight or queued request
  kEpochBump,   ///< a commit/DDL published a new catalog snapshot epoch
  kTxnConflict,  ///< first-writer-wins refused a COMMIT (a = begin epoch)
};

const char* EventKindName(EventKind k);

struct Event {
  double ts_ms = 0;    ///< NowMillis() at record time
  EventKind kind = EventKind::kBorrow;
  uint32_t actor = 0;  ///< stripe index, or 0 where not applicable
  uint64_t a = 0;      ///< primary magnitude (bytes, entries, columns)
  uint64_t b = 0;      ///< secondary magnitude
};

/// Fixed-capacity ring of recent events, oldest dropped first.
class EventRing {
 public:
  explicit EventRing(size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Record(EventKind kind, uint32_t actor, uint64_t a = 0, uint64_t b = 0);

  /// Copy of the retained events, oldest first.
  std::vector<Event> Snapshot() const;

  /// Events recorded over the ring's lifetime (>= Snapshot().size()).
  uint64_t total_recorded() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<Event> ring_;  ///< ring_[next_ % capacity_] is the oldest
  uint64_t next_ = 0;        ///< total recorded; also the write cursor
};

/// Serialises events as a JSON array (for RegistrySnapshot::ToJson's
/// `events_json` parameter).
std::string EventsToJsonArray(const std::vector<Event>& events);

}  // namespace recycledb::obs

#endif  // RECYCLEDB_OBS_EVENT_RING_H_
