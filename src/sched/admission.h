// Admission control and per-query sessions in front of the morsel
// scheduler: bounded deadline-aware queueing, load shedding with
// Status kResourceExhausted, and graceful degradation (shrink a query's
// parallelism before rejecting it).
//
// Policy (see docs/scheduler.md):
//   * up to max_concurrent queries hold sessions at once;
//   * the next max_queued arrivals wait in an earliest-deadline-first
//     queue (no-deadline arrivals order FIFO after all deadlines), each
//     waiter bounded by its own deadline and its cancellation token —
//     never an unbounded wait;
//   * arrivals beyond the queue are shed immediately with
//     kResourceExhausted; arrivals whose deadline already passed are
//     shed without dispatch (kDeadlineExceeded);
//   * a granted session's parallelism is the per-query cap divided by
//     the number of active queries (the degradation ladder), never
//     below 1;
//   * sessions meter driver scratch (partial-result arrays) against
//     max_scratch_bytes and latch kResourceExhausted when it overflows.

#ifndef ICP_SCHED_ADMISSION_H_
#define ICP_SCHED_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>

#include "parallel/executor.h"
#include "sched/scheduler.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace icp::sched {

struct AdmissionOptions {
  /// Queries allowed to hold sessions concurrently. 0 makes the governor
  /// unbounded: every arrival is admitted at once — no queue, no
  /// shedding, no admission telemetry. An engine built without a
  /// governor runs its queries on such a private governor.
  int max_concurrent = 4;
  /// Bounded admission queue depth; arrivals beyond it are shed with
  /// kResourceExhausted instead of queueing unboundedly.
  int max_queued = 8;
  /// Per-query parallelism cap (slots, including the calling thread);
  /// 0 means scheduler workers + 1.
  int max_parallelism = 0;
  /// Per-query scratch budget in bytes, accounted at partial-result
  /// allocation by the drivers; 0 means unlimited.
  std::size_t max_scratch_bytes = 0;
};

class QuerySession;

/// One consistent view of the governor's load, for the admin plane and
/// shells (QueryGovernor::Snapshot).
struct GovernorSnapshot {
  /// Queries currently holding sessions.
  int active = 0;
  /// Queries waiting in the bounded admission queue.
  int queued = 0;
  /// The configured limits (AdmissionOptions).
  int max_concurrent = 0;
  int max_queued = 0;
  /// Parallelism the next admitted query would be granted at this load
  /// (the degradation ladder's current rung).
  int next_parallelism = 0;
};

/// Admits queries against AdmissionOptions and hands out QuerySessions
/// backed by one shared MorselScheduler. Thread-safe. Must outlive every
/// session it granted and be destroyed before the scheduler.
class QueryGovernor {
 public:
  QueryGovernor(MorselScheduler& scheduler, AdmissionOptions options);

  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  ~QueryGovernor();

  /// Admits one query, blocking in the bounded deadline-ordered queue
  /// when at capacity. Returns kResourceExhausted when the queue is full
  /// (or the "sched/admit" failpoint sheds), kDeadlineExceeded when
  /// `deadline` passed before a grant, kCancelled when `token` fired
  /// while queued. The returned session releases its slot on
  /// destruction.
  StatusOr<std::unique_ptr<QuerySession>> Admit(
      const CancellationToken& token,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  int active() const;
  int queued() const;
  const AdmissionOptions& options() const { return options_; }
  MorselScheduler& scheduler() { return scheduler_; }

  /// Reads active/queued and the current degradation rung under one
  /// lock acquisition (active() then queued() can tear across a grant).
  GovernorSnapshot Snapshot() const;

  /// Snapshot() as a small JSON object — what sql_shell plugs into
  /// AdminServer::set_queries_provider for the /queries endpoint.
  std::string DescribeJson() const;

 private:
  friend class QuerySession;
  struct Waiter;

  /// Returns the parallelism granted at the current load (callers hold
  /// mu_): cap / active queries, never below 1.
  int GrantParallelismLocked() const ICP_REQUIRES(mu_);
  /// Session destruction: hand the slot to the next waiter or shrink
  /// active_.
  void Release();

  MorselScheduler& scheduler_;
  const AdmissionOptions options_;
  mutable Mutex mu_;
  int active_ ICP_GUARDED_BY(mu_) = 0;
  std::list<Waiter*> queue_ ICP_GUARDED_BY(mu_);
  std::uint64_t next_seq_ ICP_GUARDED_BY(mu_) = 0;
};

/// One admitted query's execution context: a ParallelExecutor that runs
/// regions on the shared morsel scheduler at the granted parallelism,
/// meters scratch against the per-query budget, and accumulates morsel
/// stats. Not thread-safe (one engine call uses it at a time); destroy
/// to release the admission slot.
class QuerySession final : public ParallelExecutor {
 public:
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  ~QuerySession() override;

  int max_slots() const override { return parallelism_; }

  /// Meters driver scratch; latches kResourceExhausted and returns false
  /// once the session's cumulative scratch exceeds the budget.
  bool AccountScratch(std::size_t bytes) override;

  void ParallelFor(std::size_t total, const CancelContext* cancel,
                   const std::function<void(int, std::size_t, std::size_t)>&
                       fn) override;

  /// OK while healthy; kResourceExhausted once the scratch budget
  /// overflowed, Internal once a morsel was dropped ("sched/dequeue").
  /// The engine checks this after every governed phase and discards the
  /// (degenerate) partial result on error.
  Status Error() const;

  int granted_parallelism() const { return parallelism_; }
  std::uint64_t queued_cycles() const { return queued_cycles_; }
  std::size_t scratch_bytes() const {
    // order: relaxed — monotone accounting counter; readers only need an
    // eventually-consistent total, never a synchronized snapshot.
    return scratch_bytes_.load(std::memory_order_relaxed);
  }
  const MorselStats& stats() const { return stats_; }

 private:
  friend class QueryGovernor;
  QuerySession(QueryGovernor* governor, int parallelism,
               std::uint64_t queued_cycles);

  enum ErrorKind : int { kNone = 0, kScratch = 1, kDropped = 2 };

  QueryGovernor* const governor_;
  const int parallelism_;
  const std::uint64_t queued_cycles_;
  std::atomic<std::size_t> scratch_bytes_{0};
  std::atomic<int> error_{kNone};
  MorselStats stats_;
};

}  // namespace icp::sched

#endif  // ICP_SCHED_ADMISSION_H_
