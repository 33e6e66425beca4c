#include "core/vbp_aggregate.h"

#include <cstddef>
#include <vector>

#include "obs/obs.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp::vbp {
namespace {

// Number of live segments (segments that contain at least one real tuple).
std::size_t LiveSegments(const FilterBitVector& filter) {
  return filter.num_segments();
}

}  // namespace

// ---------------------------------------------------------------------------
// SUM (Algorithm 1)
// ---------------------------------------------------------------------------

void AccumulateBitSums(const VbpColumn& column, const FilterBitVector& filter,
                       std::size_t seg_begin, std::size_t seg_end,
                       std::uint64_t* bit_sums) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_LE(seg_end, filter.num_segments());
  const int tau = column.tau();
  const Word* f_words = filter.words();
  const kern::KernelOps& ops = kern::Ops();
  // Word-group-major (paper Alg. 1 line 2): each group region is scanned
  // sequentially, and the shifts are deferred to CombineBitSums.
  for (int g = 0; g < column.num_groups(); ++g) {
    const int width = column.GroupWidth(g);
    ops.vbp_bit_sums(column.GroupData(g) + seg_begin * width,
                     f_words + seg_begin, seg_end - seg_begin, width,
                     bit_sums + g * tau);
  }
}

UInt128 CombineBitSums(const std::uint64_t* bit_sums, int k) {
  UInt128 sum = 0;
  for (int j = 0; j < k; ++j) {
    sum += static_cast<UInt128>(bit_sums[j]) << (k - 1 - j);
  }
  return sum;
}

UInt128 Sum(const VbpColumn& column, const FilterBitVector& filter,
            const CancelContext* cancel) {
  std::uint64_t bit_sums[kWordBits] = {};
  ForEachCancellableBatch(cancel, 0, LiveSegments(filter),
                          [&](std::size_t b, std::size_t e) {
                            AccumulateBitSums(column, filter, b, e, bit_sums);
                          });
  return CombineBitSums(bit_sums, column.bit_width());
}

// ---------------------------------------------------------------------------
// MIN / MAX (Algorithm 2)
// ---------------------------------------------------------------------------

void InitSlotExtreme(int k, bool is_min, Word* temp) {
  for (int j = 0; j < k; ++j) {
    temp[j] = is_min ? ~Word{0} : Word{0};
  }
}

void SlotExtremeRange(const VbpColumn& column, const FilterBitVector& filter,
                      std::size_t seg_begin, std::size_t seg_end, bool is_min,
                      Word* temp, AggStats* stats) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_LE(seg_end, filter.num_segments());
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  int widths[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    widths[g] = column.GroupWidth(g);
    bases[g] = column.GroupData(g) + seg_begin * widths[g];
  }
  AggStats local;
  kern::Ops().vbp_extreme_fold(bases, widths, num_groups, column.tau(),
                               /*lanes=*/1, filter.words() + seg_begin,
                               seg_end - seg_begin, is_min, temp,
                               stats != nullptr ? &local : nullptr);
  MergeAggStats(local, stats);
}

void MergeSlotExtreme(const Word* other, int k, bool is_min, Word* temp) {
  // One "segment" of k planes against the running state: the fold kernel
  // with a single group, an all-ones filter, and no counters.
  const Word all = ~Word{0};
  const Word* bases[1] = {other};
  const int widths[1] = {k};
  kern::Ops().vbp_extreme_fold(bases, widths, /*num_groups=*/1, /*tau=*/k,
                               /*lanes=*/1, &all, /*n=*/1, is_min, temp,
                               nullptr);
}

std::uint64_t ExtremeOfSlots(const Word* temp, int k, bool is_min) {
  std::uint64_t best = 0;
  for (int slot = 0; slot < kWordBits; ++slot) {
    const int pos = kWordBits - 1 - slot;
    std::uint64_t v = 0;
    for (int j = 0; j < k; ++j) {
      v |= ((temp[j] >> pos) & 1) << (k - 1 - j);
    }
    if (slot == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

namespace {

std::optional<std::uint64_t> Extreme(const VbpColumn& column,
                                     const FilterBitVector& filter,
                                     bool is_min,
                                     const CancelContext* cancel,
                                     AggStats* stats) {
  if (filter.CountOnes() == 0) return std::nullopt;
  const int k = column.bit_width();
  Word temp[kWordBits];
  InitSlotExtreme(k, is_min, temp);
  if (!ForEachCancellableBatch(
          cancel, 0, LiveSegments(filter), [&](std::size_t b, std::size_t e) {
            SlotExtremeRange(column, filter, b, e, is_min, temp, stats);
          })) {
    return std::nullopt;
  }
  return ExtremeOfSlots(temp, k, is_min);
}

}  // namespace

std::optional<std::uint64_t> Min(const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(column, filter, /*is_min=*/true, cancel, stats);
}

std::optional<std::uint64_t> Max(const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(column, filter, /*is_min=*/false, cancel, stats);
}

// ---------------------------------------------------------------------------
// MEDIAN / r-selection (Algorithm 3)
// ---------------------------------------------------------------------------

std::uint64_t CountCandidateBit(const VbpColumn& column, const Word* v,
                                std::size_t seg_begin, std::size_t seg_end,
                                int g, int j) {
  const int width = column.GroupWidth(g);
  return kern::Ops().masked_popcount(
      column.GroupData(g) + seg_begin * width + j, width, /*lanes=*/1,
      v + seg_begin, seg_end - seg_begin);
}

void UpdateCandidates(const VbpColumn& column, Word* v,
                      std::size_t seg_begin, std::size_t seg_end, int g,
                      int j, bool bit_is_one) {
  const int width = column.GroupWidth(g);
  const Word* base = column.GroupData(g) + seg_begin * width + j;
  for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
    if (v[seg] != 0) {
      v[seg] &= bit_is_one ? *base : ~*base;
    }
    base += width;
  }
}

std::optional<std::uint64_t> RankSelect(const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 1);
  std::uint64_t u = filter.CountOnes();
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = LiveSegments(filter);
  std::vector<Word> v(filter.words(), filter.words() + num_segments);

  const int k = column.bit_width();
  const int tau = column.tau();
  std::uint64_t result = 0;
  for (int jb = 0; jb < k; ++jb) {
    const int g = jb / tau;
    const int j = jb - g * tau;
    // c = number of remaining candidates whose current bit is 1, i.e. the
    // candidates larger than (result | 1 << (k-1-jb))'s prefix.
    std::uint64_t c = 0;
    const bool ok = ForEachCancellableBatch(
        cancel, 0, num_segments, [&](std::size_t b, std::size_t e) {
          c += CountCandidateBit(column, v.data(), b, e, g, j);
        });
    if (!ok) return std::nullopt;
    const bool bit_is_one = u - c < r;
    if (bit_is_one) {
      result |= std::uint64_t{1} << (k - 1 - jb);
      r -= u - c;
      u = c;
    } else {
      u -= c;
    }
    if (!ForEachCancellableBatch(
            cancel, 0, num_segments, [&](std::size_t b, std::size_t e) {
              UpdateCandidates(column, v.data(), b, e, g, j, bit_is_one);
            })) {
      return std::nullopt;
    }
  }
  return result;
}

std::optional<std::uint64_t> Median(const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  const std::uint64_t count = filter.CountOnes();
  if (count == 0) return std::nullopt;
  return RankSelect(column, filter, LowerMedianRank(count), cancel);
}

AggregateResult Aggregate(const VbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathVbp);
  AggregateResult result;
  result.kind = kind;
  result.count = filter.CountOnes();
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = Sum(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kMin:
      result.value = Min(column, filter, cancel, stats);
      break;
    case AggKind::kMax:
      result.value = Max(column, filter, cancel, stats);
      break;
    case AggKind::kMedian:
      result.value = Median(column, filter, cancel);
      CountFilterSegments(filter, stats);
      break;
    case AggKind::kRank:
      result.value = RankSelect(column, filter, rank, cancel);
      CountFilterSegments(filter, stats);
      break;
  }
  return result;
}

}  // namespace icp::vbp
