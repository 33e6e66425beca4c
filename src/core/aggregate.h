// Common aggregation vocabulary.
//
// All aggregators in this library share the same contract (paper Section
// III): they take a packed column and the filter bit vector F produced by a
// bit-parallel scan, and return the aggregate over the tuples whose F bit is
// set, computed over the unsigned k-bit codes. COUNT is layout-independent
// (popcounting F); AVG is SUM / COUNT; MEDIAN is the lower median (rank
// floor((count+1)/2), i.e. the 4th smallest of both 7 and 8 values), and the
// r-selection generalization is exposed as RankSelect.

#ifndef ICP_CORE_AGGREGATE_H_
#define ICP_CORE_AGGREGATE_H_

#include <cstdint>
#include <optional>

#include "bitvector/filter_bit_vector.h"
#include "obs/obs.h"
#include "simd/dispatch.h"
#include "util/bits.h"

namespace icp {

enum class AggKind {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kMedian,
  // The r-th smallest passing value (1-based): the r-selection
  // generalization the paper notes for Algorithm 3. The rank comes from
  // Query::rank (engine) or the aggregator call site.
  kRank,
};

/// Human-readable name ("SUM", "MEDIAN", ...).
const char* AggKindToString(AggKind kind);

/// Which aggregation implementation to run (the paper's comparison axis).
enum class AggMethod {
  kBitParallel,     // the paper's contribution (BP)
  kNonBitParallel,  // reconstruct-then-aggregate baseline (NBP, Section III)
};

const char* AggMethodToString(AggMethod method);

/// COUNT aggregation (paper Section III-A): identical for every layout.
inline std::uint64_t CountAggregate(const FilterBitVector& filter) {
  return filter.CountOnes();
}

/// Lower-median rank among `count` values (1-based).
inline std::uint64_t LowerMedianRank(std::uint64_t count) {
  return (count + 1) / 2;
}

/// Optional instrumentation for the aggregation kernels: the kernel
/// registry's fold counters, which the fold kernels fill in place. The
/// MIN/MAX fold cascades fill every field exactly (per segment on
/// lanes == 1 columns, per segment-quad on lanes == 4 ones); SUM,
/// MEDIAN/RANK and the value-at-a-time dispatchers report the
/// segment-liveness summary of CountFilterSegments below (see
/// docs/observability.md).
using AggStats = kern::FoldCounters;

/// Adds `from` into `*to`, field by field.
inline void AddAggStats(const AggStats& from, AggStats* to) {
  to->folds += from.folds;
  to->compare_early_stops += from.compare_early_stops;
  to->blends_skipped += from.blends_skipped;
  to->segments_skipped += from.segments_skipped;
}

/// Cheap segment-liveness summary for aggregate paths with no fold
/// cascade to count (SUM, MEDIAN/RANK, and the NBP / padded value walks
/// that skip all-dead segments): live segments count
/// as folds, all-dead segments as segments_skipped. One O(segments) pass
/// per aggregate call, only when the caller collects stats — the
/// process-wide agg.* counters advance from the same numbers.
inline void CountFilterSegments(const FilterBitVector& filter,
                                AggStats* stats) {
  if (stats == nullptr) return;
  std::uint64_t live = 0;
  const std::size_t num_segments = filter.num_segments();
  for (std::size_t s = 0; s < num_segments; ++s) {
    if (filter.SegmentWord(s) != 0) ++live;
  }
  stats->folds += live;
  stats->segments_skipped += num_segments - live;
  ICP_OBS_ADD(AggSegmentsFolded, live);
  ICP_OBS_ADD(AggSegmentsSkipped, num_segments - live);
}

/// Adds the per-slot stats of a parallel region into `stats` (when
/// non-null) once the region completes; the slots' fold ranges already
/// advanced the process-wide counters.
inline void AddSlotAggStats(const AggStats* slots, int n, AggStats* stats) {
  if (stats == nullptr) return;
  for (int i = 0; i < n; ++i) AddAggStats(slots[i], stats);
}

/// Adds one fold range's locally counted work to `stats` and advances the
/// process-wide agg.* counters (one batched add per range). No-op when
/// `stats` is null.
inline void MergeAggStats(const AggStats& local, AggStats* stats) {
  if (stats == nullptr) return;
  AddAggStats(local, stats);
  ICP_OBS_ADD(AggSegmentsFolded, local.folds);
  ICP_OBS_ADD(AggCompareEarlyStops, local.compare_early_stops);
  ICP_OBS_ADD(AggBlendsSkipped, local.blends_skipped);
  ICP_OBS_ADD(AggSegmentsSkipped, local.segments_skipped);
}

/// Result of evaluating one aggregate over codes. `value` carries MIN/MAX/
/// MEDIAN codes and is absent when no tuple passes the filter; `sum` backs
/// SUM and AVG.
/// [[nodiscard]]: an ignored AggregateResult means the whole aggregation ran
/// for nothing — every dispatcher returning one inherits the warning.
struct [[nodiscard]] AggregateResult {
  AggKind kind = AggKind::kCount;
  std::uint64_t count = 0;
  UInt128 sum = 0;
  std::optional<std::uint64_t> value;

  double Avg() const {
    return count == 0
               ? 0.0
               : UInt128ToDouble(sum) / static_cast<double>(count);
  }
};

}  // namespace icp

#endif  // ICP_CORE_AGGREGATE_H_
