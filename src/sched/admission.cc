#include "sched/admission.h"

#include <algorithm>
#include <condition_variable>
#include <string>

#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace icp::sched {

// A queued arrival. Lives on Admit's stack; every field is guarded by
// the governor's mu_, and Release notifies under that lock so the cv is
// never touched after the waiter returns.
struct QueryGovernor::Waiter {
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::uint64_t seq = 0;
  bool granted = false;
  std::condition_variable_any cv;

  // Earliest deadline first; no-deadline waiters order FIFO after every
  // deadline-carrying waiter.
  static bool OrdersBefore(const Waiter& a, const Waiter& b) {
    if (a.deadline.has_value() && b.deadline.has_value()) {
      if (*a.deadline != *b.deadline) return *a.deadline < *b.deadline;
      return a.seq < b.seq;
    }
    if (a.deadline.has_value()) return true;
    if (b.deadline.has_value()) return false;
    return a.seq < b.seq;
  }
};

QueryGovernor::QueryGovernor(MorselScheduler& scheduler,
                             AdmissionOptions options)
    : scheduler_(scheduler), options_(options) {
  ICP_CHECK_GE(options_.max_concurrent, 0);
  ICP_CHECK_GE(options_.max_queued, 0);
  ICP_CHECK_GE(options_.max_parallelism, 0);
}

QueryGovernor::~QueryGovernor() {
  MutexLock lock(mu_);
  // Sessions hold a governor pointer; destroying the governor under them
  // (or under queued waiters) is a lifetime bug, not load.
  ICP_CHECK(active_ == 0 && queue_.empty());
}

int QueryGovernor::active() const {
  MutexLock lock(mu_);
  return active_;
}

int QueryGovernor::queued() const {
  MutexLock lock(mu_);
  return static_cast<int>(queue_.size());
}

GovernorSnapshot QueryGovernor::Snapshot() const {
  GovernorSnapshot snap;
  snap.max_concurrent = options_.max_concurrent;
  snap.max_queued = options_.max_queued;
  MutexLock lock(mu_);
  snap.active = active_;
  snap.queued = static_cast<int>(queue_.size());
  snap.next_parallelism = GrantParallelismLocked();
  return snap;
}

std::string QueryGovernor::DescribeJson() const {
  const GovernorSnapshot snap = Snapshot();
  std::string out = "{";
  out += "\"active\": " + std::to_string(snap.active);
  out += ", \"queued\": " + std::to_string(snap.queued);
  out += ", \"max_concurrent\": " + std::to_string(snap.max_concurrent);
  out += ", \"max_queued\": " + std::to_string(snap.max_queued);
  out += ", \"next_parallelism\": " + std::to_string(snap.next_parallelism);
  out += "}";
  return out;
}

int QueryGovernor::GrantParallelismLocked() const {
  const int hardware = scheduler_.num_workers() + 1;  // + calling thread
  int cap = hardware;
  if (options_.max_parallelism > 0) {
    cap = std::min(cap, options_.max_parallelism);
  }
  cap = std::min(cap, kMaxRegionSlots);
  // Degradation ladder: at load, shrink per-query parallelism before
  // shedding anyone. With A active queries each gets ~cap/A slots.
  return std::max(1, cap / std::max(1, active_));
}

StatusOr<std::unique_ptr<QuerySession>> QueryGovernor::Admit(
    const CancellationToken& token,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (options_.max_concurrent == 0) {
    MutexLock lock(mu_);
    ++active_;
    return std::unique_ptr<QuerySession>(
        new QuerySession(this, GrantParallelismLocked(), 0));
  }
  // "sched/admit" simulates the governor shedding at the gate (e.g. an
  // operator-forced brownout): callers must handle kResourceExhausted on
  // any admission, not only when the queue is observably full.
  if (ICP_FAILPOINT("sched/admit")) {
    ICP_OBS_INCREMENT(AdmitShed);
    return Status::ResourceExhausted("admission shed (injected overload)");
  }
  if (deadline.has_value() &&
      std::chrono::steady_clock::now() >= *deadline) {
    // Shed without dispatch: running an already-expired query only
    // wastes the cores other queries are waiting for.
    ICP_OBS_INCREMENT(AdmitShed);
    return Status::DeadlineExceeded("deadline expired before admission");
  }

  // The admission.wait span (and histogram) covers the whole gate, so
  // even immediate grants land a (near-zero) sample: tail latency in
  // admission.wait_cycles is comparable across load levels and the CI
  // trace sample always contains the span.
  const obs::StageTimer admit_timer;
  MutexLock lock(mu_);
  if (active_ < options_.max_concurrent) {
    ++active_;
    ICP_OBS_INCREMENT(AdmitAdmitted);
    ICP_OBS_HISTOGRAM_RECORD(AdmissionWaitCycles, 0);
    obs::RecordSpan("admission.wait", 0, admit_timer.start_cycles(),
                    admit_timer.ElapsedCycles());
    return std::unique_ptr<QuerySession>(
        new QuerySession(this, GrantParallelismLocked(), 0));
  }
  if (static_cast<int>(queue_.size()) >= options_.max_queued) {
    ICP_OBS_INCREMENT(AdmitShed);
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.max_queued) +
        " queued, " + std::to_string(options_.max_concurrent) +
        " running)");
  }

  Waiter waiter;
  waiter.deadline = deadline;
  waiter.seq = next_seq_++;
  auto pos = queue_.begin();
  while (pos != queue_.end() && !Waiter::OrdersBefore(waiter, **pos)) ++pos;
  queue_.insert(pos, &waiter);

  const obs::StageTimer queued_timer;
  while (!waiter.granted) {
    if (token.IsCancelRequested()) {
      queue_.remove(&waiter);
      // obs: loop-ok — exit path; runs at most once per admission.
      ICP_OBS_INCREMENT(AdmitShed);
      return Status::Cancelled("query cancelled while queued");
    }
    const auto now = std::chrono::steady_clock::now();
    if (waiter.deadline.has_value() && now >= *waiter.deadline) {
      queue_.remove(&waiter);
      // obs: loop-ok — exit path; runs at most once per admission.
      ICP_OBS_INCREMENT(AdmitShed);
      return Status::DeadlineExceeded("deadline expired while queued");
    }
    // 1ms polls bound the wait by the token even though RequestCancel
    // does not know about this cv; the deadline additionally caps each
    // wait directly.
    auto wake = now + std::chrono::milliseconds(1);
    if (waiter.deadline.has_value()) wake = std::min(wake, *waiter.deadline);
    waiter.cv.wait_until(lock, wake);
  }
  const std::uint64_t queued_cycles = queued_timer.ElapsedCycles();
  ICP_OBS_ADD(AdmitQueuedCycles, queued_cycles);
  ICP_OBS_INCREMENT(AdmitAdmitted);
  ICP_OBS_HISTOGRAM_RECORD(AdmissionWaitCycles, queued_cycles);
  obs::RecordSpan("admission.wait", 0, admit_timer.start_cycles(),
                  admit_timer.ElapsedCycles());
  return std::unique_ptr<QuerySession>(
      new QuerySession(this, GrantParallelismLocked(), queued_cycles));
}

void QueryGovernor::Release() {
  MutexLock lock(mu_);
  if (!queue_.empty()) {
    // The slot transfers to the earliest-deadline waiter; active_ stays.
    Waiter* next = queue_.front();
    queue_.pop_front();
    next->granted = true;
    next->cv.notify_one();
  } else {
    --active_;
  }
}

QuerySession::QuerySession(QueryGovernor* governor, int parallelism,
                           std::uint64_t queued_cycles)
    : governor_(governor),
      parallelism_(parallelism),
      queued_cycles_(queued_cycles) {}

QuerySession::~QuerySession() { governor_->Release(); }

bool QuerySession::AccountScratch(std::size_t bytes) {
  const std::size_t cap = governor_->options_.max_scratch_bytes;
  // order: relaxed — monotone accounting; each caller sees its own total
  // via the returned value, no cross-thread publication rides on it.
  const std::size_t used =
      scratch_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (cap != 0 && used > cap) {
    int expected = kNone;
    // order: relaxed — first-error latch; the value is a plain enum and
    // the engine reads it after the governed phase joined (the region
    // barrier supplies the ordering).
    error_.compare_exchange_strong(expected, kScratch,
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
    return false;
  }
  return true;
}

void QuerySession::ParallelFor(
    std::size_t total, const CancelContext* cancel,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  governor_->scheduler_.RunRegion(parallelism_, total, cancel, fn, &stats_);
  if (stats_.dropped) {
    int expected = kNone;
    // order: relaxed — first-error latch set after RunRegion joined; only
    // this session's thread reads it (QuerySession is single-caller).
    error_.compare_exchange_strong(expected, kDropped,
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
  }
}

Status QuerySession::Error() const {
  // order: relaxed — read on the session's single calling thread after
  // every governed phase joined; the latch value alone decides.
  switch (error_.load(std::memory_order_relaxed)) {
    case kScratch:
      return Status::ResourceExhausted(
          "per-query scratch budget exceeded (" +
          std::to_string(scratch_bytes()) + " bytes requested, cap " +
          std::to_string(governor_->options_.max_scratch_bytes) + ")");
    case kDropped:
      return Status::Internal("a scheduled morsel was dropped");
    default:
      return Status::Ok();
  }
}

}  // namespace icp::sched
