// Test fixture: one admitted sched::QuerySession over a private morsel
// scheduler — the ParallelExecutor every parallel driver runs on, sized
// like an ungoverned engine's (threads - 1 background workers, at most
// `threads` slots).

#ifndef ICP_TESTS_TEST_SESSION_H_
#define ICP_TESTS_TEST_SESSION_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "sched/admission.h"
#include "sched/scheduler.h"
#include "util/cancellation.h"
#include "util/check.h"

namespace icp {

class TestSession {
 public:
  /// `scratch_bytes` > 0 caps the session's scratch budget.
  explicit TestSession(int threads, std::size_t scratch_bytes = 0)
      : scheduler_(threads - 1),
        governor_(scheduler_,
                  sched::AdmissionOptions{
                      .max_concurrent = 1,
                      .max_queued = 0,
                      .max_parallelism = threads,
                      .max_scratch_bytes = scratch_bytes}) {
    auto session_or = governor_.Admit(CancellationToken(), std::nullopt);
    ICP_CHECK(session_or.ok());
    session_ = std::move(session_or).value();
  }

  sched::QuerySession& ex() { return *session_; }

 private:
  // Destroyed in reverse: session, then governor, then scheduler.
  sched::MorselScheduler scheduler_;
  sched::QueryGovernor governor_;
  std::unique_ptr<sched::QuerySession> session_;
};

}  // namespace icp

#endif  // ICP_TESTS_TEST_SESSION_H_
