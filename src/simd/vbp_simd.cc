#include "simd/vbp_simd.h"

#include <algorithm>
#include <array>

#include "core/vbp_aggregate.h"
#include "simd/dispatch.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace icp::simd {
namespace {

struct CompareState256 {
  Word256 eq = Word256::Ones();
  Word256 lt = Word256::Zero();
  Word256 gt = Word256::Zero();

  void Step(Word256 x, bool c_bit) {
    if (c_bit) {
      lt = lt | AndNot(x, eq);
      eq = eq & x;
    } else {
      gt = gt | (eq & x);
      eq = AndNot(x, eq);
    }
  }
};

Word256 ResultWord(CompareOp op, const CompareState256& a,
                   const CompareState256& b) {
  switch (op) {
    case CompareOp::kEq:
      return a.eq;
    case CompareOp::kNe:
      return ~a.eq;
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

// 256-bit word of bit j of segment-quad q in group g.
inline const Word* QuadWordPtr(const VbpColumn& column, int g, std::size_t q,
                               int width, int j) {
  return column.GroupData(g) + (q * width + j) * 4;
}

}  // namespace

FilterBitVector ScanVbp(const VbpColumn& column, CompareOp op,
                        std::uint64_t c1, std::uint64_t c2,
                        ScanStats* stats, const CancelContext* cancel) {
  FilterBitVector out(column.num_values(), VbpColumn::kValuesPerSegment);
  // Batches are whole quads: column.num_segments() is a multiple of 4.
  ForEachCancellableBatch(cancel, 0, column.num_segments(),
                          [&](std::size_t b, std::size_t e) {
                            ScanVbpRange(column, op, c1, c2, b / 4, e / 4,
                                        &out);
                          });
  // Model: k bit-plane words per segment, no early-stop attribution.
  RecordModeledScan(column.num_segments(),
                    column.num_segments() *
                        static_cast<std::uint64_t>(column.bit_width()),
                    stats);
  return out;
}

void ScanVbpRange(const VbpColumn& column, CompareOp op, std::uint64_t c1,
                  std::uint64_t c2, std::size_t quad_begin,
                  std::size_t quad_end, FilterBitVector* out) {
  ICP_CHECK_EQ(column.lanes(), 4);
  ICP_CHECK_EQ(out->values_per_segment(), VbpColumn::kValuesPerSegment);
  const int k = column.bit_width();
  const int tau = column.tau();
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
  std::array<bool, kWordBits> c1_bits{};
  std::array<bool, kWordBits> c2_bits{};
  for (int j = 0; j < k; ++j) {
    c1_bits[j] = (c1 >> (k - 1 - j)) & 1;
    c2_bits[j] = (c2 >> (k - 1 - j)) & 1;
  }

  Word* f_words = out->words();
  for (std::size_t q = quad_begin; q < quad_end; ++q) {
    CompareState256 a;
    CompareState256 b;
    for (int g = 0; g < num_groups; ++g) {
      const int width = column.GroupWidth(g);
      const Word* base = QuadWordPtr(column, g, q, width, 0);
      for (int j = 0; j < width; ++j) {
        const Word256 x = Word256::Load(base + j * 4);
        a.Step(x, c1_bits[g * tau + j]);
        if (dual) b.Step(x, c2_bits[g * tau + j]);
      }
      if ((a.eq | (dual ? b.eq : Word256::Zero())).IsZero() &&
          g + 1 < num_groups) {
        break;
      }
    }
    // Stores past the live segment count land in WordBuffer's zero padding.
    ResultWord(op, a, b).Store(f_words + q * 4);
  }
  // Re-mask the ragged tail segment (the store above may have set its
  // padding bits from the zero-packed padding values), and clear the
  // padding-segment words beyond the live range — SIMD aggregate kernels
  // load them as part of the final quad.
  const std::size_t last = live_segments - 1;
  if (last >= quad_begin * 4 && last < quad_end * 4) {
    f_words[last] &= out->ValidMask(last);
  }
  // cancellation: exempt — at most the final quad's padding segments.
  for (std::size_t seg = std::max(live_segments, quad_begin * 4);
       seg < quad_end * 4; ++seg) {
    f_words[seg] = 0;
  }
}

void AccumulateBitSumsVbp(const VbpColumn& column,
                          const FilterBitVector& filter,
                          std::size_t quad_begin, std::size_t quad_end,
                          std::uint64_t* bit_sums) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const int tau = column.tau();
  const Word* f_words = filter.words();
  const kern::KernelOps& ops = kern::Ops();
  for (int g = 0; g < column.num_groups(); ++g) {
    const int width = column.GroupWidth(g);
    ops.vbp_bit_sums_quads(QuadWordPtr(column, g, quad_begin, width, 0),
                           f_words + quad_begin * 4, quad_end - quad_begin,
                           width, bit_sums + g * tau);
  }
}

UInt128 SumVbp(const VbpColumn& column, const FilterBitVector& filter,
               const CancelContext* cancel) {
  std::uint64_t bit_sums[kWordBits] = {};
  ForEachCancellableBatch(
      cancel, 0, NumQuads(column), [&](std::size_t b, std::size_t e) {
        AccumulateBitSumsVbp(column, filter, b, e, bit_sums);
      });
  return vbp::CombineBitSums(bit_sums, column.bit_width());
}

void InitSlotExtremeVbp(int k, bool is_min, Word* temp) {
  for (int i = 0; i < k * 4; ++i) {
    temp[i] = is_min ? ~Word{0} : Word{0};
  }
}

void SlotExtremeRangeVbp(const VbpColumn& column,
                         const FilterBitVector& filter,
                         std::size_t quad_begin, std::size_t quad_end,
                         bool is_min, Word* temp) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  int widths[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    widths[g] = column.GroupWidth(g);
    bases[g] = QuadWordPtr(column, g, quad_begin, widths[g], 0);
  }
  kern::Ops().vbp_extreme_fold(bases, widths, num_groups, column.tau(),
                               /*lanes=*/4, filter.words() + quad_begin * 4,
                               quad_end - quad_begin, is_min, temp, nullptr);
}

std::uint64_t ExtremeOfSlotsVbp(const Word* temp, int k, bool is_min) {
  std::uint64_t best = 0;
  for (int lane = 0; lane < 4; ++lane) {
    Word lane_temp[kWordBits];
    for (int j = 0; j < k; ++j) lane_temp[j] = temp[j * 4 + lane];
    const std::uint64_t v = vbp::ExtremeOfSlots(lane_temp, k, is_min);
    if (lane == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

namespace {

std::optional<std::uint64_t> ExtremeVbp(const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        bool is_min,
                                        const CancelContext* cancel) {
  if (filter.CountOnes() == 0) return std::nullopt;
  const int k = column.bit_width();
  Word temp[kWordBits * 4];
  InitSlotExtremeVbp(k, is_min, temp);
  if (!ForEachCancellableBatch(
          cancel, 0, NumQuads(column), [&](std::size_t b, std::size_t e) {
            SlotExtremeRangeVbp(column, filter, b, e, is_min, temp);
          })) {
    return std::nullopt;
  }
  return ExtremeOfSlotsVbp(temp, k, is_min);
}

}  // namespace

std::optional<std::uint64_t> MinVbp(const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeVbp(column, filter, /*is_min=*/true, cancel);
}

std::optional<std::uint64_t> MaxVbp(const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeVbp(column, filter, /*is_min=*/false, cancel);
}

std::optional<std::uint64_t> RankSelectVbp(const VbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 4);
  std::uint64_t u = filter.CountOnes();
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t quads = NumQuads(column);
  WordBuffer v(quads * 4);
  std::copy_n(filter.words(), filter.num_segments(), v.data());

  const int k = column.bit_width();
  const int tau = column.tau();
  std::uint64_t result = 0;
  for (int jb = 0; jb < k; ++jb) {
    const int g = jb / tau;
    const int j = jb - g * tau;
    const int width = column.GroupWidth(g);
    std::uint64_t c = 0;
    const kern::KernelOps& ops = kern::Ops();
    const bool ok = ForEachCancellableBatch(
        cancel, 0, quads, [&](std::size_t qb, std::size_t qe) {
          c += ops.masked_popcount(QuadWordPtr(column, g, qb, width, j),
                                   static_cast<std::size_t>(width) * 4,
                                   /*lanes=*/4, v.data() + qb * 4, qe - qb);
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
            cancel, 0, quads, [&](std::size_t qb, std::size_t qe) {
              for (std::size_t q = qb; q < qe; ++q) {
                Word256 cand = Word256::Load(v.data() + q * 4);
                if (cand.IsZero()) continue;
                const Word256 x =
                    Word256::Load(QuadWordPtr(column, g, q, width, j));
                cand = bit_is_one ? (cand & x) : AndNot(x, cand);
                cand.Store(v.data() + q * 4);
              }
            })) {
      return std::nullopt;
    }
  }
  return result;
}

std::optional<std::uint64_t> MedianVbp(const VbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel) {
  const std::uint64_t count = filter.CountOnes();
  if (count == 0) return std::nullopt;
  return RankSelectVbp(column, filter, LowerMedianRank(count), cancel);
}

AggregateResult AggregateVbp(const VbpColumn& column,
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
      result.sum = SumVbp(column, filter, cancel);
      break;
    case AggKind::kMin:
      result.value = MinVbp(column, filter, cancel);
      break;
    case AggKind::kMax:
      result.value = MaxVbp(column, filter, cancel);
      break;
    case AggKind::kMedian:
      result.value = MedianVbp(column, filter, cancel);
      break;
    case AggKind::kRank:
      result.value = RankSelectVbp(column, filter, rank, cancel);
      break;
  }
  if (kind != AggKind::kCount) CountFilterSegments(filter, stats);
  return result;
}

}  // namespace icp::simd
