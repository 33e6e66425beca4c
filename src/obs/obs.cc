#include "obs/obs.h"

#if ICP_OBS

#include <algorithm>
#include <mutex>

namespace icp::obs {
namespace {

// Registration is rare (once per counter per process) and snapshots are
// cold; a mutex-guarded vector keeps the registry allocation-free on the
// increment path (counters themselves are plain atomics).
std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::vector<Counter*>& Registry() {
  static auto* registry = new std::vector<Counter*>();
  return *registry;
}

}  // namespace

Counter::Counter(const char* name, const char* help)
    : name_(name), help_(help) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().push_back(this);
}

// One accessor per catalogued counter. The function-local static registers
// on first use; RegisterAllCounters() touches every accessor so snapshots
// always see the full catalogue. Names here are the source of truth the
// ICP005 lint syncs against docs/observability.md.
#define ICP_OBS_DEFINE_COUNTER(fn, counter_name, counter_help) \
  Counter& fn() {                                              \
    static Counter counter(counter_name, counter_help);        \
    return counter;                                            \
  }

ICP_OBS_DEFINE_COUNTER(ScanWordsExamined, "scan.words_examined",
                       "memory words read by the bit-parallel scans "
                       "(plane words for VBP, sub-segment words for HBP)")
ICP_OBS_DEFINE_COUNTER(ScanSegmentsProcessed, "scan.segments_processed",
                       "segments run through a scan compare cascade")
ICP_OBS_DEFINE_COUNTER(ScanSegmentsEarlyStopped,
                       "scan.segments_early_stopped",
                       "segments whose scan cascade early-stopped before "
                       "the last word group (pruned words)")
ICP_OBS_DEFINE_COUNTER(FilterCombineWords, "filter.combine_words",
                       "segment words combined by filter bit-vector "
                       "AND/OR/XOR/ANDNOT/NOT")
ICP_OBS_DEFINE_COUNTER(FilterRowsScanned, "filter.rows_scanned",
                       "rows covered by evaluated filters (query row "
                       "counts, summed)")
ICP_OBS_DEFINE_COUNTER(FilterRowsPassing, "filter.rows_passing",
                       "rows that passed evaluated filters (with "
                       "filter.rows_scanned gives the mean bit density)")
ICP_OBS_DEFINE_COUNTER(AggSegmentsFolded, "agg.segments_folded",
                       "segments folded by an aggregation kernel (live "
                       "segments actually processed)")
ICP_OBS_DEFINE_COUNTER(AggSegmentsSkipped, "agg.segments_skipped",
                       "segments an aggregation kernel skipped because no "
                       "tuple/candidate was live (early-exit pruning)")
ICP_OBS_DEFINE_COUNTER(AggCompareEarlyStops, "agg.compare_early_stops",
                       "MIN/MAX folds whose compare cascade decided every "
                       "slot before the last word group")
ICP_OBS_DEFINE_COUNTER(AggBlendsSkipped, "agg.blends_skipped",
                       "MIN/MAX folds where no slot improved the running "
                       "extreme (blend pass skipped)")
ICP_OBS_DEFINE_COUNTER(AggPathVbp, "agg.path.vbp",
                       "aggregate dispatches taking the VBP bit-parallel "
                       "path")
ICP_OBS_DEFINE_COUNTER(AggPathHbp, "agg.path.hbp",
                       "aggregate dispatches taking the HBP bit-parallel "
                       "path")
ICP_OBS_DEFINE_COUNTER(AggPathNbp, "agg.path.nbp",
                       "aggregate dispatches taking the NBP "
                       "reconstruct-then-aggregate baseline")
ICP_OBS_DEFINE_COUNTER(AggPathNaive, "agg.path.naive",
                       "aggregate dispatches over the naive unpacked "
                       "layout")
ICP_OBS_DEFINE_COUNTER(AggPathPadded, "agg.path.padded",
                       "aggregate dispatches over the padded layout")
ICP_OBS_DEFINE_COUNTER(KernDispatchScalar, "kern.dispatch.scalar",
                       "kernel-registry ops-table grabs resolving to the "
                       "scalar tier")
ICP_OBS_DEFINE_COUNTER(KernDispatchSse, "kern.dispatch.sse",
                       "kernel-registry ops-table grabs resolving to the "
                       "sse (CSA-64) tier")
ICP_OBS_DEFINE_COUNTER(KernDispatchAvx2, "kern.dispatch.avx2",
                       "kernel-registry ops-table grabs resolving to the "
                       "avx2 tier")
ICP_OBS_DEFINE_COUNTER(KernForceClamped, "kern.force_clamped",
                       "ForceTier() requests clamped to a lower tier "
                       "because the CPU lacks the requested features")
ICP_OBS_DEFINE_COUNTER(KernDispatchAvx512, "kern.dispatch.avx512",
                       "kernel-registry ops-table grabs resolving to the "
                       "avx512 tier")
ICP_OBS_DEFINE_COUNTER(CancelChecks, "cancel.checks",
                       "cooperative cancellation/deadline polls "
                       "(CancelContext::ShouldStop calls)")
ICP_OBS_DEFINE_COUNTER(FailpointHits, "failpoint.hits",
                       "failpoints that actually fired (injected failures "
                       "taken)")
ICP_OBS_DEFINE_COUNTER(EngineQueries, "engine.queries",
                       "engine query executions (Execute / ExecuteMulti / "
                       "ExecuteGroupBy entry points)")
ICP_OBS_DEFINE_COUNTER(SchedMorselsDispatched, "sched.morsels.dispatched",
                       "morsels enqueued into scheduler regions (segment "
                       "ranges of kMorselSegments)")
ICP_OBS_DEFINE_COUNTER(SchedMorselsCompleted, "sched.morsels.completed",
                       "morsels whose body actually ran to completion")
ICP_OBS_DEFINE_COUNTER(SchedMorselsCancelled, "sched.morsels.cancelled",
                       "morsels drained without running because their "
                       "query was cancelled or its deadline passed")
ICP_OBS_DEFINE_COUNTER(SchedSteals, "sched.steals",
                       "morsels a scheduler participant stole from another "
                       "slot's shard after draining its own")
ICP_OBS_DEFINE_COUNTER(AdmitAdmitted, "admit.admitted",
                       "queries granted a session by the admission "
                       "governor (immediately or after queueing)")
ICP_OBS_DEFINE_COUNTER(AdmitShed, "admit.shed",
                       "queries rejected by admission control (queue full, "
                       "deadline already expired, or injected shed)")
ICP_OBS_DEFINE_COUNTER(AdmitQueuedCycles, "admit.queued_cycles",
                       "cycles queries spent waiting in the bounded "
                       "admission queue before being granted")
ICP_OBS_DEFINE_COUNTER(IoRetries, "io.retries",
                       "transient I/O read failures retried with backoff "
                       "(table_io and csv_loader)")
ICP_OBS_DEFINE_COUNTER(GroupByQueriesSinglePass, "groupby.queries_single_pass",
                       "grouped-aggregation queries executed by the "
                       "single-pass operator (src/groupby/)")
ICP_OBS_DEFINE_COUNTER(GroupByQueriesNaive, "groupby.queries_naive",
                       "grouped-aggregation queries executed by the naive "
                       "per-code strategy")
ICP_OBS_DEFINE_COUNTER(GroupByLocalHits, "groupby.local_hits",
                       "rows absorbed by a single-pass worker's thread-local "
                       "aggregation table")
ICP_OBS_DEFINE_COUNTER(GroupBySpilledRows, "groupby.spilled_rows",
                       "rows the single-pass operator packed into radix "
                       "spill partitions (local table full or pure-spill "
                       "mode)")
ICP_OBS_DEFINE_COUNTER(GroupByMergeEntries, "groupby.merge_entries",
                       "per-worker partial-table entries folded by the "
                       "single-pass merge phase")
ICP_OBS_DEFINE_COUNTER(GroupByPartitionsMerged, "groupby.partitions_merged",
                       "radix partitions merged by the single-pass "
                       "operator")
ICP_OBS_DEFINE_COUNTER(JournalRecords, "journal.records",
                       "completed-query records appended to the query "
                       "journal ring (src/obs/journal.h)")
ICP_OBS_DEFINE_COUNTER(JournalSlowQueries, "journal.slow_queries",
                       "journal records whose total cycles crossed the "
                       "slow-query threshold (each also emits a "
                       "\"query.slow\" trace span)")
ICP_OBS_DEFINE_COUNTER(AdminRequests, "admin.requests",
                       "HTTP requests served by the embedded admin "
                       "listener (src/obs/admin_server.h)")

#undef ICP_OBS_DEFINE_COUNTER

void RegisterAllCounters() {
  ScanWordsExamined();
  ScanSegmentsProcessed();
  ScanSegmentsEarlyStopped();
  FilterCombineWords();
  FilterRowsScanned();
  FilterRowsPassing();
  AggSegmentsFolded();
  AggSegmentsSkipped();
  AggCompareEarlyStops();
  AggBlendsSkipped();
  AggPathVbp();
  AggPathHbp();
  AggPathNbp();
  AggPathNaive();
  AggPathPadded();
  KernDispatchScalar();
  KernDispatchSse();
  KernDispatchAvx2();
  KernDispatchAvx512();
  KernForceClamped();
  CancelChecks();
  FailpointHits();
  EngineQueries();
  SchedMorselsDispatched();
  SchedMorselsCompleted();
  SchedMorselsCancelled();
  SchedSteals();
  AdmitAdmitted();
  AdmitShed();
  AdmitQueuedCycles();
  IoRetries();
  GroupByQueriesSinglePass();
  GroupByQueriesNaive();
  GroupByLocalHits();
  GroupBySpilledRows();
  GroupByMergeEntries();
  GroupByPartitionsMerged();
  JournalRecords();
  JournalSlowQueries();
  AdminRequests();
}

std::vector<std::pair<std::string, std::uint64_t>> SnapshotCounters() {
  RegisterAllCounters();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(RegistryMu());
    out.reserve(Registry().size());
    for (const Counter* counter : Registry()) {
      out.emplace_back(counter->name(), counter->Load());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<CounterInfo> SnapshotCounterInfo() {
  RegisterAllCounters();
  std::vector<CounterInfo> out;
  {
    std::lock_guard<std::mutex> lock(RegistryMu());
    out.reserve(Registry().size());
    for (const Counter* counter : Registry()) {
      out.push_back(
          CounterInfo{counter->name(), counter->help(), counter->Load()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CounterInfo& a, const CounterInfo& b) {
              return a.name < b.name;
            });
  return out;
}

void ResetAllCounters() {
  RegisterAllCounters();
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (Counter* counter : Registry()) counter->Reset();
}

std::uint64_t CounterValue(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (const Counter* counter : Registry()) {
    if (name == counter->name()) return counter->Load();
  }
  return 0;
}

std::string SnapshotText() {
  std::string out;
  for (const auto& [name, value] : SnapshotCounters()) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

std::string SnapshotJson() {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : SnapshotCounters()) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += name;
    out += "\": ";
    out += std::to_string(value);
  }
  out += "}";
  return out;
}

}  // namespace icp::obs

#endif  // ICP_OBS
