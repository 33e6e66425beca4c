// Process-wide observability: named counters with a compile-out switch.
//
// The paper argues about where cycles and memory words go (Section IV); this
// layer makes the engine report that accounting at runtime instead of only
// in recompiled benches. It has three parts:
//
//   * a counter registry (this header + obs.cc): relaxed-atomic uint64
//     counters registered once at first use, incremented through the
//     ICP_OBS_ADD macro. Increments happen at batch granularity (once per
//     scan leaf, per aggregate, per morsel — never per word), so the
//     enabled layer costs well under the 2% budget recorded in
//     docs/observability.md.
//   * per-query QueryStats (query_stats.h) carried via ExecOptions and
//     filled by the engine from the scanners' ScanStats, the aggregators'
//     AggStats and the kernel registry's EffectiveTier.
//   * exporters: SnapshotText / SnapshotJson here, the Chrome trace-event
//     writer in trace.h, and EXPLAIN ANALYZE in the engine.
//
// Compile-out: building with -DICP_OBS=0 (CMake option ICP_OBS=OFF) turns
// ICP_OBS_ADD and the trace macros into no-ops, so the hot translation
// units contain no obs symbols at all (CI checks this with nm). The
// QueryStats plumbing is plain structs and survives either way.
//
// Counter names are dotted lowercase ("scan.words_examined"). Every name
// registered through ICP_OBS_DEFINE_COUNTER must be catalogued in
// docs/observability.md — tools/icp_lint.py rule ICP005 enforces the sync
// in both directions.

#ifndef ICP_OBS_OBS_H_
#define ICP_OBS_OBS_H_

#ifndef ICP_OBS
#define ICP_OBS 1
#endif

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icp::obs {

#if ICP_OBS

/// A process-wide monotonically increasing counter. Construction registers
/// the counter in the global registry; Add is one relaxed fetch_add, safe
/// from any thread. Counters are created as function-local statics through
/// ICP_OBS_DEFINE_COUNTER and live for the whole process.
class Counter {
 public:
  Counter(const char* name, const char* help);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // order: relaxed — monotone statistics counter; readers tolerate any
  // interleaving, no data is published through it.
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t Load() const {
    // order: relaxed — snapshot read of a statistics counter.
    return value_.load(std::memory_order_relaxed);
  }
  /// Testing hook; production code never resets.
  // order: relaxed — test-only reset; tests serialize around it.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  const char* name() const { return name_; }
  const char* help() const { return help_; }

 private:
  const char* name_;
  const char* help_;
  std::atomic<std::uint64_t> value_{0};
};

/// All counters registered so far, sorted by name, with current values.
std::vector<std::pair<std::string, std::uint64_t>> SnapshotCounters();

/// One counter with its help text (the Prometheus exporter needs the
/// HELP line; SnapshotCounters keeps its lean name/value shape).
struct CounterInfo {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

/// All counters registered so far, sorted by name, with help + values.
std::vector<CounterInfo> SnapshotCounterInfo();

/// Forces registration of the whole static catalogue (counters otherwise
/// register lazily on first Add); snapshots call this so they always list
/// every counter, touched or not.
void RegisterAllCounters();

/// Zeroes every registered counter (tests and EXPLAIN ANALYZE deltas).
void ResetAllCounters();

/// Value of one counter by name; 0 when the name is not registered.
std::uint64_t CounterValue(const std::string& name);

/// Plain-text dump: one "name value" line per counter.
std::string SnapshotText();

/// JSON object {"name": value, ...}, keys sorted.
std::string SnapshotJson();

// -- Counter catalogue (defined in obs.cc; keep docs/observability.md in
// -- sync, both ways — icp_lint ICP005).
Counter& ScanWordsExamined();
Counter& ScanSegmentsProcessed();
Counter& ScanSegmentsEarlyStopped();
Counter& FilterCombineWords();
Counter& FilterRowsScanned();
Counter& FilterRowsPassing();
Counter& AggSegmentsFolded();
Counter& AggSegmentsSkipped();
Counter& AggCompareEarlyStops();
Counter& AggBlendsSkipped();
Counter& AggPathVbp();
Counter& AggPathHbp();
Counter& AggPathNbp();
Counter& AggPathNaive();
Counter& AggPathPadded();
Counter& KernDispatchScalar();
Counter& KernDispatchSse();
Counter& KernDispatchAvx2();
Counter& KernDispatchAvx512();
Counter& KernForceClamped();
Counter& CancelChecks();
Counter& FailpointHits();
Counter& EngineQueries();
Counter& SchedMorselsDispatched();
Counter& SchedMorselsCompleted();
Counter& SchedMorselsCancelled();
Counter& SchedSteals();
Counter& AdmitAdmitted();
Counter& AdmitShed();
Counter& AdmitQueuedCycles();
Counter& IoRetries();
Counter& GroupByQueriesSinglePass();
Counter& GroupByQueriesNaive();
Counter& GroupByLocalHits();
Counter& GroupBySpilledRows();
Counter& GroupByMergeEntries();
Counter& GroupByPartitionsMerged();
Counter& JournalRecords();
Counter& JournalSlowQueries();
Counter& AdminRequests();

#else  // !ICP_OBS

// With the layer compiled out the snapshot API still links (exporters and
// shells call it unconditionally) but reports an empty registry.
inline std::vector<std::pair<std::string, std::uint64_t>>
SnapshotCounters() {
  return {};
}
struct CounterInfo {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};
inline std::vector<CounterInfo> SnapshotCounterInfo() { return {}; }
inline void RegisterAllCounters() {}
inline void ResetAllCounters() {}
inline std::uint64_t CounterValue(const std::string&) { return 0; }
inline std::string SnapshotText() { return ""; }
inline std::string SnapshotJson() { return "{}"; }

#endif  // ICP_OBS

}  // namespace icp::obs

/// Hot-path increment: ICP_OBS_ADD(ScanWordsExamined, n). Expands to a
/// single relaxed fetch_add when the layer is enabled and to nothing when
/// built with ICP_OBS=0.
#if ICP_OBS
#define ICP_OBS_ADD(counter_fn, n) (::icp::obs::counter_fn().Add(n))
#define ICP_OBS_INCREMENT(counter_fn) (::icp::obs::counter_fn().Increment())
#else
#define ICP_OBS_ADD(counter_fn, n) ((void)0)
#define ICP_OBS_INCREMENT(counter_fn) ((void)0)
#endif

#endif  // ICP_OBS_OBS_H_
