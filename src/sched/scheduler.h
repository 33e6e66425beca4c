// Morsel-driven scheduler: a shared worker pool that executes parallel
// regions decomposed into small segment-range morsels (Leis et al.,
// SIGMOD'14). It is the engine's only thread substrate: governed engines
// share a governor's scheduler, ungoverned ones own a private one.
//
// Each RunRegion call builds one region: `parallelism` shards, each a
// deque of morsels distributed contiguously (so an uncontended region
// touches memory in the order of a static per-worker split). Participants —
// the calling thread plus any background workers — claim one of the
// region's slots via an atomic bitmask, pop their own shard from the
// front and steal from other shards' backs when theirs drains. Workers
// rotate across the active regions of *all* concurrent queries, so K
// queries share the cores at morsel granularity instead of fighting over
// whole pools.
//
// Cancellation composes per morsel: every dispatch polls the region's
// CancelContext first and a fired context drains the whole queue at
// once, so a cancelled or expired query frees its cores within one
// in-flight morsel per slot.
//
// Memory ordering: each completed morsel decrements the region's
// `remaining` counter with acq_rel; the caller's final acquire load of
// that counter synchronizes with every decrement (RMW release
// sequence), so all worker writes to the drivers' partial arrays are
// visible when RunRegion returns.

#ifndef ICP_SCHED_SCHEDULER_H_
#define ICP_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sched/morsel.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace icp::sched {

/// Per-region (and, accumulated, per-session) morsel accounting.
struct MorselStats {
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t steals = 0;
  /// True when a "sched/dequeue" failpoint dropped a morsel; the region
  /// still completes and the engine surfaces Status Internal.
  bool dropped = false;
};

/// Hard cap on per-region parallelism (slot bitmask width).
inline constexpr int kMaxRegionSlots = 64;

class MorselScheduler {
 public:
  /// Starts `num_workers` background workers (>= 0). With zero workers
  /// every region runs entirely on its calling thread — deterministic,
  /// which the scheduler tests exploit — and no thread is started.
  /// Idle workers block without polling while no region is registered.
  explicit MorselScheduler(int num_workers);

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Joins the workers. No region may be in flight (every QueryGovernor
  /// and QuerySession built on this scheduler must be destroyed first).
  ~MorselScheduler();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(slot, begin, end) over [0, total) decomposed into morsels of
  /// kMorselSegments, with at most `parallelism` concurrent slots
  /// (clamped to [1, kMaxRegionSlots] and to the morsel count). The
  /// calling thread participates and the call blocks until every morsel
  /// completed or drained. `stats`, when non-null, is accumulated into.
  void RunRegion(int parallelism, std::size_t total,
                 const CancelContext* cancel,
                 const std::function<void(int, std::size_t, std::size_t)>& fn,
                 MorselStats* stats);

 private:
  struct Region;

  void WorkerLoop();
  /// Claims a slot of `region` and runs (or drains) one morsel. Returns
  /// false when the region offers nothing: no free slot or empty queue.
  bool TryRunOneMorsel(Region& region);
  /// Completes `n` morsels and wakes the region's caller.
  static void FinishAndNotify(Region& region, std::uint64_t n);

  Mutex mu_;
  std::condition_variable_any cv_;
  std::vector<std::shared_ptr<Region>> regions_ ICP_GUARDED_BY(mu_);
  std::uint64_t epoch_ ICP_GUARDED_BY(mu_) = 0;
  bool shutdown_ ICP_GUARDED_BY(mu_) = false;
  // not-guarded: filled by the constructor and joined by the destructor,
  // both single-threaded phases of the scheduler's lifetime.
  std::vector<std::thread> workers_;
};

}  // namespace icp::sched

#endif  // ICP_SCHED_SCHEDULER_H_
