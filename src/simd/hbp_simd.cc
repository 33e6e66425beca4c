#include "simd/hbp_simd.h"

#include <algorithm>
#include <array>
#include <vector>

#include "core/hbp_aggregate.h"
#include "simd/dispatch.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace icp::simd {
namespace {

// 256-bit word of sub-segment t of segment-quad q in group g.
inline const Word* QuadWordPtr(const HbpColumn& column, int g, std::size_t q,
                               int s, int t) {
  return column.GroupData(g) + (q * s + t) * 4;
}

struct FieldCompareState256 {
  Word256 eq;
  Word256 lt;
  Word256 gt;

  void Reset(Word256 md) {
    eq = md;
    lt = Word256::Zero();
    gt = Word256::Zero();
  }

  void Step(Word256 x, Word256 c, Word256 md) {
    const Word256 ge = FieldGe256(x, c, md);
    const Word256 le = FieldGe256(c, x, md);
    lt = lt | (eq & (ge ^ md));
    gt = gt | (eq & (le ^ md));
    eq = eq & ge & le;
  }
};

Word256 ResultWord(CompareOp op, Word256 md, const FieldCompareState256& a,
                   const FieldCompareState256& b) {
  switch (op) {
    case CompareOp::kEq:
      return a.eq;
    case CompareOp::kNe:
      return md ^ a.eq;
    case CompareOp::kLt:
      return a.lt;
    case CompareOp::kLe:
      return a.lt | a.eq;
    case CompareOp::kGt:
      return a.gt;
    case CompareOp::kGe:
      return a.gt | a.eq;
    case CompareOp::kBetween:
      return (a.gt | a.eq) & (b.lt | b.eq);
  }
  return Word256::Zero();
}

}  // namespace

FilterBitVector ScanHbp(const HbpColumn& column, CompareOp op,
                        std::uint64_t c1, std::uint64_t c2,
                        ScanStats* stats, const CancelContext* cancel) {
  FilterBitVector out(column.num_values(), column.values_per_segment());
  // Batches are whole quads: column.num_segments() is a multiple of 4.
  ForEachCancellableBatch(cancel, 0, column.num_segments(),
                          [&](std::size_t b, std::size_t e) {
                            ScanHbpRange(column, op, c1, c2, b / 4, e / 4,
                                        &out);
                          });
  // Model: s sub-segment words per group per segment.
  RecordModeledScan(column.num_segments(),
                    column.num_segments() *
                        static_cast<std::uint64_t>(column.num_groups()) *
                        static_cast<std::uint64_t>(column.field_width()),
                    stats);
  return out;
}

void ScanHbpRange(const HbpColumn& column, CompareOp op, std::uint64_t c1,
                  std::uint64_t c2, std::size_t quad_begin,
                  std::size_t quad_end, FilterBitVector* out) {
  ICP_CHECK_EQ(column.lanes(), 4);
  ICP_CHECK_EQ(out->values_per_segment(), column.values_per_segment());
  const int k = column.bit_width();
  const int tau = column.tau();
  const int s = column.field_width();
  const int num_groups = column.num_groups();
  const std::size_t live_segments = out->num_segments();

  bool all = false;
  if (ScanIsDegenerate(k, op, c1, &c2, &all)) {
    // cancellation: exempt — ScanRange covers one cancel batch or morsel;
    // the caller (ForEachCancellableBatch / per-morsel driver) polls
    // between them.
    for (std::size_t seg = quad_begin * 4;
         seg < quad_end * 4 && seg < live_segments; ++seg) {
      out->SetSegmentWord(seg, all ? out->ValidMask(seg) : 0);
    }
    return;
  }

  const bool dual = op == CompareOp::kBetween;
  const Word256 md = Word256::Broadcast(DelimiterMask(s));
  const Word group_mask = LowMask(tau);
  std::array<Word256, kWordBits> c1_packed;
  std::array<Word256, kWordBits> c2_packed;
  for (int g = 0; g < num_groups; ++g) {
    const int shift = column.GroupShift(g);
    c1_packed[g] =
        Word256::Broadcast(RepeatField((c1 >> shift) & group_mask, s));
    c2_packed[g] =
        Word256::Broadcast(RepeatField((c2 >> shift) & group_mask, s));
  }
  // All bits of a full segment word are meaningful except the vps padding.
  const Word256 full_valid =
      Word256::Broadcast(HighMask(column.values_per_segment()));

  std::array<FieldCompareState256, kWordBits> a;
  std::array<FieldCompareState256, kWordBits> b;
  Word* f_words = out->words();
  for (std::size_t q = quad_begin; q < quad_end; ++q) {
    for (int t = 0; t < s; ++t) {
      a[t].Reset(md);
      b[t].Reset(md);
    }
    for (int g = 0; g < num_groups; ++g) {
      const Word* base = QuadWordPtr(column, g, q, s, 0);
      Word256 any_eq = Word256::Zero();
      for (int t = 0; t < s; ++t) {
        const Word256 x = Word256::Load(base + t * 4);
        a[t].Step(x, c1_packed[g], md);
        any_eq = any_eq | a[t].eq;
        if (dual) {
          b[t].Step(x, c2_packed[g], md);
          any_eq = any_eq | b[t].eq;
        }
      }
      if (any_eq.IsZero() && g + 1 < num_groups) break;
    }
    Word256 filter = Word256::Zero();
    for (int t = 0; t < s; ++t) {
      filter = filter | ResultWord(op, md, a[t], b[t]).Shr64(t);
    }
    (filter & full_valid).Store(f_words + q * 4);
  }
  const std::size_t last = live_segments - 1;
  if (last >= quad_begin * 4 && last < quad_end * 4) {
    f_words[last] &= out->ValidMask(last);
  }
  // Clear padding-segment words beyond the live range (aggregate kernels
  // load them as part of the final quad).
  // cancellation: exempt — at most the final quad's padding segments.
  for (std::size_t seg = std::max(live_segments, quad_begin * 4);
       seg < quad_end * 4; ++seg) {
    f_words[seg] = 0;
  }
}

void AccumulateGroupSumsHbp(const HbpColumn& column,
                            const FilterBitVector& filter,
                            std::size_t quad_begin, std::size_t quad_end,
                            std::uint64_t* group_sums) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const int s = column.field_width();
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    bases[g] = QuadWordPtr(column, g, quad_begin, s, 0);
  }
  kern::Ops().hbp_sum(bases, num_groups, s, column.tau(), /*lanes=*/4,
                      filter.words() + quad_begin * 4,
                      quad_end - quad_begin, group_sums);
}

UInt128 SumHbp(const HbpColumn& column, const FilterBitVector& filter,
               const CancelContext* cancel) {
  std::uint64_t group_sums[kWordBits] = {};
  ForEachCancellableBatch(
      cancel, 0, NumQuads(column), [&](std::size_t b, std::size_t e) {
        AccumulateGroupSumsHbp(column, filter, b, e, group_sums);
      });
  return hbp::CombineGroupSums(column, group_sums);
}

void InitSubSlotExtremeHbp(const HbpColumn& column, bool is_min, Word* temp) {
  const Word fields = FieldValueMask(column.field_width());
  for (int i = 0; i < column.num_groups() * 4; ++i) {
    temp[i] = is_min ? fields : Word{0};
  }
}

void SubSlotExtremeRangeHbp(const HbpColumn& column,
                            const FilterBitVector& filter,
                            std::size_t quad_begin, std::size_t quad_end,
                            bool is_min, Word* temp) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const int s = column.field_width();
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    bases[g] = QuadWordPtr(column, g, quad_begin, s, 0);
  }
  kern::Ops().hbp_extreme_fold(bases, num_groups, s, column.tau(),
                               /*lanes=*/4, filter.words() + quad_begin * 4,
                               quad_end - quad_begin, is_min, temp, nullptr);
}

std::uint64_t ExtremeOfSubSlotsHbp(const HbpColumn& column, const Word* temp,
                                   bool is_min) {
  std::uint64_t best = 0;
  for (int lane = 0; lane < 4; ++lane) {
    Word lane_temp[kWordBits];
    for (int g = 0; g < column.num_groups(); ++g) {
      lane_temp[g] = temp[g * 4 + lane];
    }
    const std::uint64_t v = hbp::ExtremeOfSubSlots(column, lane_temp, is_min);
    if (lane == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

namespace {

std::optional<std::uint64_t> ExtremeHbp(const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        bool is_min,
                                        const CancelContext* cancel) {
  if (filter.CountOnes() == 0) return std::nullopt;
  Word temp[kWordBits * 4];
  InitSubSlotExtremeHbp(column, is_min, temp);
  if (!ForEachCancellableBatch(
          cancel, 0, NumQuads(column), [&](std::size_t b, std::size_t e) {
            SubSlotExtremeRangeHbp(column, filter, b, e, is_min, temp);
          })) {
    return std::nullopt;
  }
  return ExtremeOfSubSlotsHbp(column, temp, is_min);
}

}  // namespace

std::optional<std::uint64_t> MinHbp(const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeHbp(column, filter, /*is_min=*/true, cancel);
}

std::optional<std::uint64_t> MaxHbp(const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeHbp(column, filter, /*is_min=*/false, cancel);
}

std::optional<std::uint64_t> RankSelectHbp(const HbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const std::uint64_t u = filter.CountOnes();
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t quads = NumQuads(column);
  WordBuffer v(quads * 4);
  std::copy_n(filter.words(), filter.num_segments(), v.data());

  const int s = column.field_width();
  const int tau = column.tau();
  const Word dm_scalar = DelimiterMask(s);
  const Word256 dm = Word256::Broadcast(dm_scalar);
  const Word value_mask = LowMask(tau);
  std::vector<std::uint64_t> hist(std::size_t{1} << tau);

  std::uint64_t result = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    std::fill(hist.begin(), hist.end(), 0);
    // Histogram: scalar slot extraction per lane (Alg. 6's per-slot walk).
    if (!ForEachCancellableBatch(
            cancel, 0, quads, [&](std::size_t qb, std::size_t qe) {
              for (std::size_t q = qb; q < qe; ++q) {
                for (int lane = 0; lane < 4; ++lane) {
                  const Word cand = v[q * 4 + lane];
                  if (cand == 0) continue;
                  for (int t = 0; t < s; ++t) {
                    Word md = (cand << t) & dm_scalar;
                    const Word w = QuadWordPtr(column, g, q, s, t)[lane];
                    while (md != 0) {
                      const int p = CountTrailingZeros(md);
                      md &= md - 1;
                      ++hist[(w >> (p - tau)) & value_mask];
                    }
                  }
                }
              }
            })) {
      return std::nullopt;
    }
    std::uint64_t cum = 0;
    std::uint64_t bin = 0;
    while (cum + hist[bin] < r) {
      cum += hist[bin];
      ++bin;
    }
    r -= cum;
    result |= bin << column.GroupShift(g);
    if (g + 1 < column.num_groups()) {
      // Vectorized candidate narrowing with BIT-PARALLEL-EQUAL.
      const Word256 packed_bin = Word256::Broadcast(RepeatField(bin, s));
      if (!ForEachCancellableBatch(
              cancel, 0, quads, [&](std::size_t qb, std::size_t qe) {
                for (std::size_t q = qb; q < qe; ++q) {
                  Word256 cand = Word256::Load(v.data() + q * 4);
                  if (cand.IsZero()) continue;
                  const Word* base = QuadWordPtr(column, g, q, s, 0);
                  Word256 matches = Word256::Zero();
                  for (int t = 0; t < s; ++t) {
                    const Word256 x = Word256::Load(base + t * 4);
                    const Word256 eq = FieldGe256(x, packed_bin, dm) &
                                       FieldGe256(packed_bin, x, dm);
                    matches = matches | eq.Shr64(t);
                  }
                  (cand & matches).Store(v.data() + q * 4);
                }
              })) {
        return std::nullopt;
      }
    }
  }
  return result;
}

std::optional<std::uint64_t> MedianHbp(const HbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel) {
  const std::uint64_t count = filter.CountOnes();
  if (count == 0) return std::nullopt;
  return RankSelectHbp(column, filter, LowerMedianRank(count), cancel);
}

AggregateResult AggregateHbp(const HbpColumn& column,
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
      result.sum = SumHbp(column, filter, cancel);
      break;
    case AggKind::kMin:
      result.value = MinHbp(column, filter, cancel);
      break;
    case AggKind::kMax:
      result.value = MaxHbp(column, filter, cancel);
      break;
    case AggKind::kMedian:
      result.value = MedianHbp(column, filter, cancel);
      break;
    case AggKind::kRank:
      result.value = RankSelectHbp(column, filter, rank, cancel);
      break;
  }
  if (kind != AggKind::kCount) CountFilterSegments(filter, stats);
  return result;
}

}  // namespace icp::simd
