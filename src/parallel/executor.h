// Execution-strategy seam between the parallel aggregation drivers and
// whatever supplies their worker slots.
//
// ParallelExecutor abstracts the "run this body over [0, total) with
// bounded worker slots" contract. Its one production implementation is
// sched::QuerySession: the morsel-driven scheduler (small segment ranges
// pulled by a shared worker pool with stealing; admission control and
// per-query budgets in front). Every engine owns or borrows one, so
// every parallel region of every query runs on the same substrate.
//
// The virtual call happens once per morsel (~kMorselSegments segments
// of kernel work), never per word, so the seam costs nothing measurable
// (see docs/scheduler.md for the overhead guard).

#ifndef ICP_PARALLEL_EXECUTOR_H_
#define ICP_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <functional>

#include "util/cancellation.h"

namespace icp {

/// Contract for running driver bodies in parallel.
///
///   * ParallelFor invokes fn(slot, begin, end) over disjoint subranges
///     that together cover [0, total) (unless cancelled/dropped early).
///   * `slot` is in [0, max_slots()); two invocations with the same slot
///     never run concurrently, so drivers may index per-slot partial
///     accumulators without synchronization. A slot may receive many
///     disjoint subranges, so accumulators must be initialized by the
///     caller before the region and folded with += / merge semantics.
///   * All writes made by fn happen-before ParallelFor's return.
///   * `cancel`, when active, is polled at least once per subrange, so
///     worst-case cancellation latency is one subrange per slot.
class ParallelExecutor {
 public:
  virtual ~ParallelExecutor() = default;

  /// Exclusive upper bound on the `slot` argument fn can be called with.
  virtual int max_slots() const = 0;

  /// Accounts `bytes` of per-query scratch (partial-result arrays) against
  /// the executor's budget. Returns false when the budget is exhausted;
  /// the driver must then skip the allocation and return a degenerate
  /// result, which the engine discards after surfacing the executor's
  /// latched error.
  virtual bool AccountScratch(std::size_t bytes) = 0;

  virtual void ParallelFor(
      std::size_t total, const CancelContext* cancel,
      const std::function<void(int, std::size_t, std::size_t)>& fn) = 0;
};

}  // namespace icp

#endif  // ICP_PARALLEL_EXECUTOR_H_
