// Query engine: filter scan + aggregation over a wide Table.
//
// Executes the paper's query shape (e.g. Q1: SELECT SUM(X) FROM Y WHERE
// Z < 4): every filter leaf runs one bit-parallel scan on its column, leaf
// results combine with AND/OR/NOT, and the chosen aggregation method (the
// paper's BP contribution or the NBP reconstruct-then-aggregate baseline)
// consumes the filter bit vector. ExecOptions picks the comparison axes of
// Section IV that remain choices: method (BP/NBP) and multi-threading.
// SIMD is not a choice: bit-parallel work always runs the 256-bit kernels
// on the columns' one lanes == 4 packing.

#ifndef ICP_ENGINE_ENGINE_H_
#define ICP_ENGINE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "engine/expression.h"
#include "engine/table.h"
#include "obs/query_stats.h"
#include "obs/stage_timer.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace icp {

namespace sched {
class MorselScheduler;
class QueryGovernor;
class QuerySession;
}  // namespace sched

struct ExecOptions {
  /// Aggregation implementation (scans are always bit-parallel, as in the
  /// paper: both methods take the filter bit vector as input).
  AggMethod method = AggMethod::kBitParallel;
  /// Worker threads (1 = single-threaded). An ungoverned engine owns a
  /// private morsel scheduler with threads - 1 background workers (none
  /// at threads = 1); a governed one borrows the governor's.
  int threads = 1;
  /// Has no effect: every VBP/HBP column is packed once in the lanes == 4
  /// segment-quad form, and every bit-parallel scan and aggregate runs the
  /// lanes == 4 (256-bit) kernels whatever this says.
  bool simd = false;
  /// Cooperative cancellation: every scan and aggregation kernel (scalar,
  /// SIMD, naive/padded, multi-threaded) polls this token every
  /// kCancelBatchSegments segments (or once per morsel on the scheduler)
  /// and the query returns Status kCancelled.
  /// Default-constructed tokens are inert (no overhead); the engine also
  /// observes the token between phases.
  CancellationToken cancel_token{};
  /// Per-call time budget: each Execute/ExecuteMulti/ExecuteGroupBy (and
  /// standalone EvaluateFilter/Aggregate) call converts it to an absolute
  /// deadline at entry and returns Status kDeadlineExceeded once it passes,
  /// with the same granularity as cancellation.
  std::optional<std::chrono::nanoseconds> deadline{};
  /// Per-query statistics sink. When non-null, Execute / ExecuteMulti /
  /// ExecuteGroupBy reset it at entry and fill the stage-cycle breakdown,
  /// scan/aggregate work counters and dispatch info; the standalone
  /// EvaluateFilter / Aggregate phases accumulate into it without
  /// resetting. Not owned; must outlive the engine calls. Collecting
  /// stats costs one extra filter popcount per query plus the ScanStats /
  /// AggStats merges.
  obs::QueryStats* stats = nullptr;
  /// Overload-safe concurrent execution: when non-null, every public
  /// entry point (Execute / ExecuteMulti / ExecuteGroupBy and the
  /// standalone EvaluateFilter / Aggregate) first admits itself against
  /// the governor (bounded queue, load shedding with kResourceExhausted,
  /// degraded parallelism, scratch budgets) and runs every parallel
  /// phase — bit-parallel, SIMD and NBP alike — on the governor's shared
  /// morsel scheduler. When null the engine admits against a private
  /// unbounded governor (never queues or sheds, unlimited scratch) over
  /// its private scheduler; with threads = 1 it then runs the serial
  /// kernels (see docs/scheduler.md). Not owned; must outlive the
  /// engine.
  sched::QueryGovernor* governor = nullptr;
  /// Grouped-aggregation strategy: ExecuteGroupBy switches from the naive
  /// per-code scan loop to the single-pass operator (src/groupby/) when
  /// the group dictionary has at least this many codes. 0 picks the
  /// measured default (see docs/groupby.md); 1 forces single-pass and
  /// UINT64_MAX forces naive. MEDIAN/RANK always run naive.
  std::uint64_t groupby_threshold = 0;
  /// Per-worker local aggregation-table budget (bytes) for the
  /// single-pass operator; 0 = 1 MiB. The query's total local-table
  /// memory is this times the granted worker slots — a governor-degraded
  /// grant shrinks it — and is metered against the admission scratch
  /// budget together with the merge accumulators.
  std::size_t groupby_local_bytes = 0;
};

struct Query {
  AggKind agg = AggKind::kCount;
  /// Column the aggregate runs over (any column works for COUNT).
  std::string agg_column;
  /// Filter; null means all rows pass.
  FilterExprPtr filter;
  /// 1-based rank for AggKind::kRank (e.g. rank = ceil(0.99 * count) gives
  /// the p99); ignored by the other aggregates.
  std::uint64_t rank = 0;
};

/// Several aggregates sharing one filter (e.g. TPC-H Q1 computes 8
/// aggregates after a single scan).
struct MultiQuery {
  std::vector<std::pair<AggKind, std::string>> aggregates;
  FilterExprPtr filter;
};

struct QueryResult {
  AggKind kind = AggKind::kCount;
  std::uint64_t count = 0;

  /// Code-domain results (exact).
  UInt128 code_sum = 0;
  std::optional<std::uint64_t> code_value;

  /// Value-domain results. `decoded_value` carries MIN/MAX/MEDIAN exactly;
  /// `value` carries every aggregate as a double (SUM/AVG may lose
  /// precision beyond 2^53).
  std::optional<std::int64_t> decoded_value;
  double value = 0.0;

  /// RDTSC cycles spent in the filter scan(s) and in the aggregation.
  std::uint64_t scan_cycles = 0;
  std::uint64_t agg_cycles = 0;
};

class Engine {
 public:
  explicit Engine(ExecOptions options = ExecOptions());
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  const ExecOptions& options() const { return options_; }

  /// Evaluates `filter` (null = pass-all) and returns the filter bit vector
  /// shaped for `shape_column`'s layout. `scan_cycles`, if non-null,
  /// receives the RDTSC cost of the scans (excluding reshaping).
  StatusOr<FilterBitVector> EvaluateFilter(
      const Table& table, const FilterExprPtr& filter,
      const std::string& shape_column, std::uint64_t* scan_cycles = nullptr);

  /// Runs the aggregation phase only, on a pre-computed filter. `rank` is
  /// used only by AggKind::kRank.
  StatusOr<QueryResult> Aggregate(const Table& table, AggKind kind,
                                  const std::string& column,
                                  const FilterBitVector& filter,
                                  std::uint64_t rank = 0);

  /// Full query: scan + aggregate, with per-phase timings.
  StatusOr<QueryResult> Execute(const Table& table, const Query& query);

  /// Runs the query with stats collection forced on and renders the
  /// EXPLAIN ANALYZE report (per-stage cycles, scan/aggregate work,
  /// dispatched kernel tier). `parse_cycles`, when nonzero, is folded in
  /// as the parse stage — the engine itself never sees SQL text, so the
  /// parser's cost arrives from the caller (see query_parser.h). If
  /// options().stats is set it receives the same QueryStats.
  StatusOr<std::string> ExplainAnalyze(const Table& table, const Query& query,
                                       std::uint64_t parse_cycles = 0);

  /// Executes several aggregates over one shared filter scan; results come
  /// back in the order of `query.aggregates`. Each result's scan_cycles is
  /// the (shared) scan cost; agg_cycles is per aggregate.
  StatusOr<std::vector<QueryResult>> ExecuteMulti(const Table& table,
                                                  const MultiQuery& query);

  /// Grouped aggregation in the wide-table style the paper adopts from
  /// [11]: the group-by column must be dictionary-encoded. Below the
  /// ExecOptions::groupby_threshold cardinality each group evaluates as
  /// `filter AND group_column == value` against per-code bit vectors built
  /// in one pass over the codes (the naive strategy); at or above it one
  /// morsel-driven pass with thread-local tables and radix spill computes
  /// every group at once (src/groupby/, the single-pass strategy). Returns
  /// one (group value, QueryResult) pair per non-empty group, ordered by
  /// group value; both strategies produce identical results.
  StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>> ExecuteGroupBy(
      const Table& table, const Query& query,
      const std::string& group_column);

  // SQL three-valued filter state: `pass` marks rows where the predicate is
  // definitely TRUE, `unknown` rows where it is UNKNOWN (a NULL was
  // compared). Everything else is FALSE. Only `pass` rows survive a WHERE.
  struct TriState {
    FilterBitVector pass;
    FilterBitVector unknown;
  };

 private:
  /// Admits the query against governor_ for the duration of one public
  /// entry point and copies the session's scheduling stats into
  /// options().stats on exit.
  struct SessionScope;

  /// The per-call deadline budget as an absolute deadline (nullopt when
  /// unset). Computed once per public entry point so admission queueing
  /// and every execution phase share one deadline.
  std::optional<std::chrono::steady_clock::time_point> AbsoluteDeadline()
      const;

  // The public entry points wrap these: the Internal variants carry the
  // whole execution, the wrappers add the telemetry epilogue
  // (FinishQuery) on success and error paths alike.
  StatusOr<QueryResult> ExecuteInternal(const Table& table,
                                        const Query& query);
  StatusOr<std::vector<QueryResult>> ExecuteMultiInternal(
      const Table& table, const MultiQuery& query);
  StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
  ExecuteGroupByInternal(const Table& table, const Query& query,
                         const std::string& group_column);
  /// Telemetry epilogue shared by the public entry points: records the
  /// end-to-end latency and per-stage histograms and appends the query
  /// journal record (obs/journal.h). `timer` spans the whole entry
  /// point; `rows` is the entry point's result cardinality (0 on
  /// error).
  void FinishQuery(const char* entry, std::uint64_t fingerprint,
                   const obs::StageTimer& timer,
                   std::uint64_t start_unix_ns, const Status& status,
                   std::uint64_t rows);

  StatusOr<FilterBitVector> EvaluateFilterImpl(const Table& table,
                                               const FilterExprPtr& filter,
                                               const std::string& shape_column,
                                               std::uint64_t* scan_cycles,
                                               const CancelContext* cancel);
  StatusOr<QueryResult> AggregateImpl(const Table& table, AggKind kind,
                                      const std::string& column,
                                      const FilterBitVector& filter,
                                      std::uint64_t rank,
                                      const CancelContext* cancel);
  StatusOr<TriState> EvalExpr(const Table& table, const FilterExpr& expr,
                              const CancelContext* cancel);
  /// The naive GROUP BY strategy: per-code bit vectors scattered from the
  /// group column's codes in chunked passes (invariant work hoisted out of
  /// the per-group loop), then one bit-parallel aggregate per non-empty
  /// group.
  StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>> NaiveGroupBy(
      const Table& table, const Query& query, const Table::Column& group,
      const Table::Column& agg, const FilterBitVector& base,
      std::uint64_t scan_cycles, const CancelContext& cancel);
  /// The single-pass GROUP BY strategy (src/groupby/): thread-local
  /// tables + radix spill + parallel merge on the session's scheduler.
  StatusOr<std::vector<std::pair<std::int64_t, QueryResult>>>
  SinglePassGroupBy(const Table& table, const Query& query,
                    const Table::Column& group, const Table::Column& agg,
                    const FilterBitVector& base, std::uint64_t scan_cycles,
                    const CancelContext& cancel);
  StatusOr<TriState> ScanLeaf(const Table& table, const FilterExpr& leaf,
                              const CancelContext* cancel);
  /// Surfaces the active session's latched error (scratch budget
  /// exhausted, dropped morsel) after a phase.
  Status CheckSession();
  /// True on the one path that bypasses the scheduler: ungoverned with
  /// threads = 1, which runs the serial kernels.
  bool Serial() const {
    return options_.governor == nullptr && options_.threads == 1;
  }

  ExecOptions options_;
  /// The private scheduler and unbounded governor of an ungoverned
  /// engine (both null when options_.governor is set). Declared so the
  /// governor is destroyed before its scheduler.
  std::unique_ptr<sched::MorselScheduler> private_scheduler_;
  std::unique_ptr<sched::QueryGovernor> private_governor_;
  /// options_.governor, or private_governor_ when ungoverned.
  sched::QueryGovernor* governor_ = nullptr;
  /// Session of the entry point currently on this engine's call stack
  /// (engines are single-query objects; set/cleared by SessionScope, so
  /// it is non-null inside every public entry point).
  sched::QuerySession* session_ = nullptr;
};

/// Renders a filled QueryStats + QueryResult as the EXPLAIN ANALYZE text
/// (what Engine::ExplainAnalyze returns; exposed for shells that collect
/// the stats themselves).
std::string FormatExplainAnalyze(const obs::QueryStats& stats,
                                 const QueryResult& result);

}  // namespace icp

#endif  // ICP_ENGINE_ENGINE_H_
