// Deterministic fault injection ("failpoints").
//
// A failpoint is a named site in a failure-prone code path (a disk write, an
// allocation, a worker task dispatch) that tests can arm to simulate the
// failure deterministically. Production code plants a site with
//
//   if (ICP_FAILPOINT("table_io/write")) { /* act as if the write failed */ }
//
// and tests arm it with fail::EnableOneShot("table_io/write") (or Always /
// EveryNth). Failpoints are compiled in only when the ICP_FAILPOINTS CMake
// option is ON (it defines ICP_FAILPOINTS globally); in release builds the
// macro is the literal `false` and the planted branch folds away entirely, so
// hot paths pay nothing.
//
// The control API below is declared unconditionally so tests can link in
// either configuration; without ICP_FAILPOINTS the functions are no-ops and
// fail::Armed() reports false (tests use that to GTEST_SKIP).
//
// Catalog of planted failpoints (keep docs/robustness.md in sync):
//   table_io/write       — Writer::Raw in table_io.cc: simulated short write
//   table_io/fsync       — WriteTable: fsync of the temp file fails
//   table_io/rename      — WriteTable: rename(temp, target) fails
//   table_io/read        — Reader::Raw in table_io.cc: simulated short read
//   table_io/read_transient — Reader::Raw: retryable read error; the reader
//                          retries with jittered backoff (util/backoff.h) up
//                          to kIoMaxAttempts before failing like table_io/read
//   aligned_buffer/alloc — WordBuffer: simulated allocation failure
//   csv_loader/open      — LoadCsv: opening the file fails (permissions,
//                          missing mount) even though it exists
//   csv_loader/read      — LoadFromStream: stream error mid-file; the loader
//                          returns a Status instead of a partial table
//   csv_loader/read_transient — LoadFromStream: retryable stream error;
//                          bounded jittered retries, then a Status
//   sched/admit          — QueryGovernor::Admit: the governor sheds the
//                          arrival with kResourceExhausted (forced brownout)
//   sched/dequeue        — MorselScheduler::TryRunOneMorsel: a dequeued
//                          morsel is dropped without running; the region
//                          completes and the session surfaces Status Internal
//   sched/steal          — MorselScheduler::TryRunOneMorsel: a steal attempt
//                          backs off (lost race); the morsel stays queued
//   query_parser/lex     — Lexer::Run: lexer-internal failure before
//                          tokenizing
//   query_parser/parse   — ParseQuery: parser-internal failure; partial
//                          expression trees must not leak
//   query_parser/parse_predicate — ParsePredicate: same failure mode for the
//                          bare-predicate entry point
//   groupby/spill        — groupby::Execute: a spill append fails; the pass
//                          region drains and Status Internal surfaces (no
//                          partial groups escape)
//   groupby/merge        — groupby::Execute: one partition's merge fails;
//                          same drain-then-Internal contract

#ifndef ICP_UTIL_FAILPOINT_H_
#define ICP_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace icp::fail {

/// True when the library was built with ICP_FAILPOINTS (i.e. the control
/// functions below actually do something).
bool Armed();

/// Arms `name` to fire on every evaluation.
void EnableAlways(const std::string& name);

/// Arms `name` to fire on the n-th, 2n-th, 3n-th… evaluation (n >= 1).
void EnableEveryNth(const std::string& name, std::uint64_t n);

/// Arms `name` to fire exactly once, on its next evaluation.
void EnableOneShot(const std::string& name);

/// Disarms `name` (evaluations keep being counted).
void Disable(const std::string& name);

/// Disarms every failpoint and resets all counters. Call from test
/// SetUp/TearDown so armed points never leak across tests.
void DisableAll();

/// Number of times `name` has been evaluated since the last DisableAll.
std::uint64_t EvalCount(const std::string& name);

/// Number of times `name` actually fired since the last DisableAll.
std::uint64_t TriggerCount(const std::string& name);

/// Every failpoint name evaluated so far in this process (the live catalog).
std::vector<std::string> KnownFailpoints();

#ifdef ICP_FAILPOINTS
/// Implementation hook behind ICP_FAILPOINT; do not call directly.
bool ShouldFail(const char* name);
#endif

}  // namespace icp::fail

#ifdef ICP_FAILPOINTS
#define ICP_FAILPOINT(name) (::icp::fail::ShouldFail(name))
#else
#define ICP_FAILPOINT(name) (false)
#endif

#endif  // ICP_UTIL_FAILPOINT_H_
