#include "core/hbp_aggregate.h"

#include <vector>

#include "scan/hbp_scanner.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp::hbp {

// ---------------------------------------------------------------------------
// SUM (Algorithm 4)
// ---------------------------------------------------------------------------

void AccumulateGroupSums(const HbpColumn& column,
                         const FilterBitVector& filter,
                         std::size_t seg_begin, std::size_t seg_end,
                         std::uint64_t* group_sums) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_LE(seg_end, filter.num_segments());
  const int s = column.field_width();
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    bases[g] = column.GroupData(g) + seg_begin * s;
  }
  kern::Ops().hbp_sum(bases, num_groups, s, column.tau(), /*lanes=*/1,
                      filter.words() + seg_begin, seg_end - seg_begin,
                      group_sums);
}

UInt128 CombineGroupSums(const HbpColumn& column,
                         const std::uint64_t* group_sums) {
  UInt128 sum = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    sum += static_cast<UInt128>(group_sums[g]) << column.GroupShift(g);
  }
  return sum;
}

UInt128 Sum(const HbpColumn& column, const FilterBitVector& filter,
            const CancelContext* cancel) {
  std::uint64_t group_sums[kWordBits] = {};
  ForEachCancellableBatch(
      cancel, 0, filter.num_segments(), [&](std::size_t b, std::size_t e) {
        AccumulateGroupSums(column, filter, b, e, group_sums);
      });
  return CombineGroupSums(column, group_sums);
}

// ---------------------------------------------------------------------------
// MIN / MAX (Algorithm 5)
// ---------------------------------------------------------------------------

void InitSubSlotExtreme(const HbpColumn& column, bool is_min, Word* temp) {
  const Word fields = FieldValueMask(column.field_width());
  for (int g = 0; g < column.num_groups(); ++g) {
    temp[g] = is_min ? fields : Word{0};
  }
}

void SubSlotExtremeRange(const HbpColumn& column,
                         const FilterBitVector& filter,
                         std::size_t seg_begin, std::size_t seg_end,
                         bool is_min, Word* temp, AggStats* stats) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_LE(seg_end, filter.num_segments());
  const int s = column.field_width();
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    bases[g] = column.GroupData(g) + seg_begin * s;
  }
  AggStats local;
  kern::Ops().hbp_extreme_fold(bases, num_groups, s, column.tau(),
                               /*lanes=*/1, filter.words() + seg_begin,
                               seg_end - seg_begin, is_min, temp,
                               stats != nullptr ? &local : nullptr);
  MergeAggStats(local, stats);
}

void MergeSubSlotExtreme(const HbpColumn& column, const Word* other,
                         bool is_min, Word* temp) {
  // One single-word "segment" per group, with the full delimiter mask as
  // the filter: only sub-segment 0 has a nonzero md, so the kernel never
  // reads past the one word each bases[g] points at.
  const Word dm = DelimiterMask(column.field_width());
  const Word* bases[kWordBits];
  for (int g = 0; g < column.num_groups(); ++g) bases[g] = other + g;
  kern::Ops().hbp_extreme_fold(bases, column.num_groups(),
                               column.field_width(), column.tau(),
                               /*lanes=*/1, &dm, /*n=*/1, is_min, temp,
                               nullptr);
}

std::uint64_t ExtremeOfSubSlots(const HbpColumn& column, const Word* temp,
                                bool is_min) {
  const int s = column.field_width();
  const int m = column.fields_per_word();
  const Word mask = LowMask(column.tau());
  std::uint64_t best = 0;
  for (int f = 0; f < m; ++f) {
    const int shift = kWordBits - (f + 1) * s;
    std::uint64_t v = 0;
    for (int g = 0; g < column.num_groups(); ++g) {
      v |= ((temp[g] >> shift) & mask) << column.GroupShift(g);
    }
    if (f == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

namespace {

std::optional<std::uint64_t> Extreme(const HbpColumn& column,
                                     const FilterBitVector& filter,
                                     bool is_min,
                                     const CancelContext* cancel,
                                     AggStats* stats) {
  if (filter.CountOnes() == 0) return std::nullopt;
  Word temp[kWordBits];
  InitSubSlotExtreme(column, is_min, temp);
  if (!ForEachCancellableBatch(
          cancel, 0, filter.num_segments(), [&](std::size_t b, std::size_t e) {
            SubSlotExtremeRange(column, filter, b, e, is_min, temp, stats);
          })) {
    return std::nullopt;
  }
  return ExtremeOfSubSlots(column, temp, is_min);
}

}  // namespace

std::optional<std::uint64_t> Min(const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(column, filter, /*is_min=*/true, cancel, stats);
}

std::optional<std::uint64_t> Max(const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return Extreme(column, filter, /*is_min=*/false, cancel, stats);
}

// ---------------------------------------------------------------------------
// MEDIAN / r-selection (Algorithm 6)
// ---------------------------------------------------------------------------

void BuildGroupHistogram(const HbpColumn& column, const Word* v,
                         std::size_t seg_begin, std::size_t seg_end, int g,
                         std::uint64_t* hist) {
  const int s = column.field_width();
  const int tau = column.tau();
  const Word dm = DelimiterMask(s);
  const Word value_mask = LowMask(tau);
  const Word* base = column.GroupData(g) + seg_begin * s;
  for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
    const Word cand = v[seg];
    if (cand != 0) {
      for (int t = 0; t < s; ++t) {
        Word md = (cand << t) & dm;
        const Word w = base[t];
        while (md != 0) {
          const int p = CountTrailingZeros(md);  // delimiter bit position
          md &= md - 1;
          ++hist[(w >> (p - tau)) & value_mask];
        }
      }
    }
    base += s;
  }
}

void NarrowCandidates(const HbpColumn& column, Word* v,
                      std::size_t seg_begin, std::size_t seg_end, int g,
                      std::uint64_t bin) {
  const int s = column.field_width();
  const Word dm = DelimiterMask(s);
  const Word packed_bin = RepeatField(bin, s);
  const Word* base = column.GroupData(g) + seg_begin * s;
  for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
    if (v[seg] != 0) {
      Word matches = 0;
      for (int t = 0; t < s; ++t) {
        const Word x = base[t];
        const Word eq =
            FieldGe(x, packed_bin, dm) & FieldGe(packed_bin, x, dm);
        matches |= eq >> t;
      }
      v[seg] &= matches;
    }
    base += s;
  }
}

std::optional<std::uint64_t> RankSelect(const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 1);
  const std::uint64_t u = filter.CountOnes();
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = filter.num_segments();
  std::vector<Word> v(filter.words(), filter.words() + num_segments);
  std::vector<std::uint64_t> hist(std::size_t{1} << column.tau());

  std::uint64_t result = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    std::fill(hist.begin(), hist.end(), 0);
    if (!ForEachCancellableBatch(
            cancel, 0, num_segments, [&](std::size_t b, std::size_t e) {
              BuildGroupHistogram(column, v.data(), b, e, g, hist.data());
            })) {
      return std::nullopt;
    }
    // bin = argmin_i sum_{j<=i} hist[j] >= r (paper Alg. 6 line 7).
    std::uint64_t cum = 0;
    std::uint64_t bin = 0;
    while (cum + hist[bin] < r) {
      cum += hist[bin];
      ++bin;
    }
    r -= cum;
    result |= bin << column.GroupShift(g);
    // The last group needs no candidate narrowing: the answer is complete.
    if (g + 1 < column.num_groups()) {
      if (!ForEachCancellableBatch(
              cancel, 0, num_segments, [&](std::size_t b, std::size_t e) {
                NarrowCandidates(column, v.data(), b, e, g, bin);
              })) {
        return std::nullopt;
      }
    }
  }
  return result;
}

std::optional<std::uint64_t> Median(const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  const std::uint64_t count = filter.CountOnes();
  if (count == 0) return std::nullopt;
  return RankSelect(column, filter, LowerMedianRank(count), cancel);
}

AggregateResult Aggregate(const HbpColumn& column,
                          const FilterBitVector& filter, AggKind kind,
                          std::uint64_t rank, const CancelContext* cancel,
                          AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathHbp);
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

}  // namespace icp::hbp
