// Multi-threaded driver for the NBP (reconstruct-then-aggregate) baseline,
// so the Table II comparison runs both methods under the same thread budget
// and the same scheduler. Morsels reconstruct their passing tuples; SUM/
// MIN/MAX fold into per-slot scalars, MEDIAN appends to per-slot value
// buffers that are concatenated to select the rank.

#ifndef ICP_PARALLEL_PARALLEL_NBP_H_
#define ICP_PARALLEL_PARALLEL_NBP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "bitvector/filter_bit_vector.h"
#include "core/aggregate.h"
#include "core/nbp_aggregate.h"
#include "parallel/executor.h"
#include "util/bits.h"
#include "util/cancellation.h"

namespace icp::par_nbp {

/// The optional CancelContext is polled by the executor once per morsel
/// (same contract as par:: — participants drain and the engine discards
/// the partial result).
template <typename ColumnT>
UInt128 Sum(ParallelExecutor& ex, const ColumnT& column,
            const FilterBitVector& filter,
            const CancelContext* cancel = nullptr) {
  std::vector<UInt128> partial(ex.max_slots(), 0);
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   UInt128 sum = 0;
                   nbp::ForEachPassingRange(
                       column, filter, b, e,
                       [&](std::uint64_t v) { sum += v; });
                   partial[slot] += sum;
                 });
  UInt128 total = 0;
  for (const UInt128& p : partial) total += p;
  return total;
}

template <typename ColumnT>
std::optional<std::uint64_t> Extreme(ParallelExecutor& ex,
                                     const ColumnT& column,
                                     const FilterBitVector& filter,
                                     bool is_min,
                                     const CancelContext* cancel = nullptr) {
  const auto better = [is_min](std::uint64_t v,
                               const std::optional<std::uint64_t>& best) {
    return !best.has_value() || (is_min ? v < *best : v > *best);
  };
  std::vector<std::optional<std::uint64_t>> partial(ex.max_slots());
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   std::optional<std::uint64_t>& best = partial[slot];
                   nbp::ForEachPassingRange(column, filter, b, e,
                                            [&](std::uint64_t v) {
                                              if (better(v, best)) best = v;
                                            });
                 });
  std::optional<std::uint64_t> best;
  for (const auto& p : partial) {
    if (p.has_value() && better(*p, best)) best = p;
  }
  return best;
}

template <typename ColumnT>
std::optional<std::uint64_t> Min(ParallelExecutor& ex, const ColumnT& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr) {
  return Extreme(ex, column, filter, /*is_min=*/true, cancel);
}

template <typename ColumnT>
std::optional<std::uint64_t> Max(ParallelExecutor& ex, const ColumnT& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel = nullptr) {
  return Extreme(ex, column, filter, /*is_min=*/false, cancel);
}

/// The per-slot value buffers plus their concatenation hold up to twice
/// the passing count; both count against the executor's scratch budget
/// before any value is reconstructed.
template <typename ColumnT>
std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const ColumnT& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel =
                                            nullptr) {
  const std::uint64_t count = filter.CountOnes();
  if (r < 1 || r > count) return std::nullopt;
  if (!ex.AccountScratch(2 * count * sizeof(std::uint64_t))) {
    return std::nullopt;
  }
  std::vector<std::vector<std::uint64_t>> partial(ex.max_slots());
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   nbp::ForEachPassingRange(
                       column, filter, b, e,
                       [&](std::uint64_t v) { partial[slot].push_back(v); });
                 });
  std::vector<std::uint64_t> values;
  values.reserve(count);
  for (auto& p : partial) {
    values.insert(values.end(), p.begin(), p.end());
    std::vector<std::uint64_t>().swap(p);
  }
  if (values.size() < r) return std::nullopt;  // cancelled mid-walk
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(r - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

template <typename ColumnT>
std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const ColumnT& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel = nullptr) {
  return RankSelect(ex, column, filter, LowerMedianRank(filter.CountOnes()),
                    cancel);
}

/// `stats`, when non-null, carries the CountFilterSegments liveness
/// summary (same contract as nbp::Aggregate).
template <typename ColumnT>
AggregateResult Aggregate(ParallelExecutor& ex, const ColumnT& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank = 0,
                          const CancelContext* cancel = nullptr,
                          AggStats* stats = nullptr) {
  ICP_OBS_INCREMENT(AggPathNbp);
  AggregateResult result;
  result.kind = kind;
  result.count = filter.CountOnes();
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = Sum(ex, column, filter, cancel);
      break;
    case AggKind::kMin:
      result.value = Min(ex, column, filter, cancel);
      break;
    case AggKind::kMax:
      result.value = Max(ex, column, filter, cancel);
      break;
    case AggKind::kMedian:
      result.value = Median(ex, column, filter, cancel);
      break;
    case AggKind::kRank:
      result.value = RankSelect(ex, column, filter, rank, cancel);
      break;
  }
  if (kind != AggKind::kCount) CountFilterSegments(filter, stats);
  return result;
}

}  // namespace icp::par_nbp

#endif  // ICP_PARALLEL_PARALLEL_NBP_H_
