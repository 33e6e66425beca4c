// Shared pieces of the repo benchmark: run configuration, clocks,
// quantiles, resident-memory sampling, the in-memory span tracer and the
// reference filter evaluator every workload checks its results against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/expression.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// log2 of the table row count (2^21 unless a smoke run shrinks it).
  int rows_log2 = 21;
  /// Smoke check: corrupt one reference answer so the run must fail.
  bool perturb_reference = false;
  int nproc = 1;
  /// Directory for the trace and the group-by table file.
  std::string out_dir = ".bench_out";

  std::size_t rows() const { return std::size_t{1} << rows_log2; }
};

/// Set-ups in an untraced run; setup_s is their median. A traced run sets
/// up once.
inline constexpr int kSetups = 3;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; sorts a copy.
double Quantile(std::vector<double> values, double q);

/// Current resident set size in bytes (/proc/self/statm, not the peak).
std::size_t ResidentBytes();

/// Returns freed heap pages to the OS so ResidentBytes() reports what the
/// program keeps, not what the allocator caches.
void TrimHeap();

/// TSC cycles per nanosecond, measured against steady_clock.
double MeasureCyclesPerNs();

/// A named metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Correctness tally: statements attempted and statements that returned a
/// non-OK status or disagreed with the reference.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one statement; the first few failures are named on stderr.
  void Record(bool ok, const std::string& what);
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Per-statement samples of one closed-loop measured phase.
struct PhaseResult {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  Tally tally;

  /// Runs one statement and records its latency.
  template <typename Fn>
  auto Time(Fn&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    return result;
  }

  double Qps() const {
    return wall_s > 0 ? static_cast<double>(latencies_ms.size()) / wall_s
                      : 0.0;
  }
};

/// What one run reports: metrics, the correctness tally, and for the run
/// metadata the number of measured statements, p95 latency and the time
/// of each set-up.
struct Outcome {
  Metrics metrics;
  Tally tally;
  std::size_t measured_statements = 0;
  double latency_p95_ms = 0.0;
  std::vector<double> setup_times_s;
};

/// End-to-end metrics of a measured phase plus set-up (the median of
/// `setup_times_s`) and memory.
void AddEndToEnd(const PhaseResult& phase,
                 const std::vector<double>& setup_times_s,
                 double resident_bytes_per_row, Outcome& out);

// ---------------------------------------------------------------------
// Tracing: spans are kept in memory and written as Chrome trace-event
// JSON at exit. Each span records its parent (the innermost open span on
// the same thread) and the statement it belongs to.

class Tracer {
 public:
  struct Span {
    std::string name;
    int tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::uint64_t stmt = 0;    // 0 = not part of a statement
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  Tracer();

  /// Opens a span on the calling thread.
  void Begin(const std::string& name, std::uint64_t stmt);
  /// Closes the innermost open span of the calling thread.
  void End();

  /// Sum of span self time (duration minus the time covered by direct
  /// children), in nanoseconds, and span count, per span name.
  std::map<std::string, std::pair<double, std::uint64_t>> SelfTimes() const;
  /// Total duration (not self time) of spans named `name`, in ns.
  double TotalNs(const std::string& name) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
  std::map<std::uint64_t, int> thread_ids_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t stmt = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, stmt);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------
// Reference evaluation over raw (value-domain) columns.

/// A raw column: values plus an optional validity vector (null = no
/// NULLs).
struct RawColumn {
  const std::vector<std::int64_t>* values = nullptr;
  const std::vector<bool>* valid = nullptr;
};
using RawTable = std::map<std::string, RawColumn>;

/// Rows where `filter` is TRUE under SQL three-valued logic (null filter =
/// every row), as one byte per row.
std::vector<std::uint8_t> ReferenceFilter(const RawTable& table,
                                          const icp::FilterExprPtr& filter,
                                          std::size_t rows);

/// Reference answer of one aggregate over the rows `pass` selects,
/// skipping NULLs of the aggregated column.
struct Expected {
  icp::AggKind kind = icp::AggKind::kCount;
  std::uint64_t count = 0;
  __int128 sum = 0;
  /// MIN/MAX/MEDIAN value; unset when no row contributes.
  bool has_value = false;
  std::int64_t value = 0;
};
Expected ReferenceAggregate(const RawColumn& column, icp::AggKind kind,
                            const std::vector<std::uint8_t>& pass);

/// True when the engine's result agrees with the reference.
bool Matches(const icp::QueryResult& got, const Expected& want);

/// Deliberately wrong copy of a reference answer (smoke check).
Expected Perturbed(Expected e);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
