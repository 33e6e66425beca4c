#include "simd/simd_parallel.h"

#include <algorithm>
#include <vector>

#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "parallel/parallel_aggregate.h"
#include "simd/dispatch.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace icp::simd {
namespace {

constexpr int kMaxThreads = 256;

// Words of one slot's 256-value extreme state (4 lanes x up to 64 planes
// or groups).
constexpr std::size_t kSlotTempWords = kWordBits * 4;

}  // namespace

FilterBitVector ScanVbp(ParallelExecutor& ex, const VbpColumn& column,
                        CompareOp op, std::uint64_t c1, std::uint64_t c2,
                        const CancelContext* cancel, ScanStats* stats) {
  FilterBitVector out(column.num_values(), VbpColumn::kValuesPerSegment);
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int, std::size_t b, std::size_t e) {
                   ScanVbpRange(column, op, c1, c2, b, e, &out);
                 });
  RecordModeledScan(column.num_segments(),
                    column.num_segments() *
                        static_cast<std::uint64_t>(column.bit_width()),
                    stats);
  return out;
}

FilterBitVector ScanHbp(ParallelExecutor& ex, const HbpColumn& column,
                        CompareOp op, std::uint64_t c1, std::uint64_t c2,
                        const CancelContext* cancel, ScanStats* stats) {
  FilterBitVector out(column.num_values(), column.values_per_segment());
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int, std::size_t b, std::size_t e) {
                   ScanHbpRange(column, op, c1, c2, b, e, &out);
                 });
  RecordModeledScan(column.num_segments(),
                    column.num_segments() *
                        static_cast<std::uint64_t>(column.num_groups()) *
                        static_cast<std::uint64_t>(column.field_width()),
                    stats);
  return out;
}

UInt128 SumVbp(ParallelExecutor& ex, const VbpColumn& column,
               const FilterBitVector& filter, const CancelContext* cancel) {
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t words = static_cast<std::size_t>(slots) * kWordBits;
  if (!ex.AccountScratch(words * sizeof(std::uint64_t))) return UInt128{};
  std::vector<std::uint64_t> bit_sums(words, 0);
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   AccumulateBitSumsVbp(column, filter, b, e,
                                        bit_sums.data() + slot * kWordBits);
                 });
  for (int i = 1; i < slots; ++i) {
    for (int j = 0; j < k; ++j) bit_sums[j] += bit_sums[i * kWordBits + j];
  }
  return vbp::CombineBitSums(bit_sums.data(), k);
}

UInt128 SumHbp(ParallelExecutor& ex, const HbpColumn& column,
               const FilterBitVector& filter, const CancelContext* cancel) {
  const int slots = ex.max_slots();
  const std::size_t words = static_cast<std::size_t>(slots) * kWordBits;
  if (!ex.AccountScratch(words * sizeof(std::uint64_t))) return UInt128{};
  std::vector<std::uint64_t> group_sums(words, 0);
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   AccumulateGroupSumsHbp(
                       column, filter, b, e,
                       group_sums.data() + slot * kWordBits);
                 });
  for (int i = 1; i < slots; ++i) {
    for (int g = 0; g < column.num_groups(); ++g) {
      group_sums[g] += group_sums[i * kWordBits + g];
    }
  }
  return hbp::CombineGroupSums(column, group_sums.data());
}

namespace {

// A slot that received no morsel keeps its identity state (all-ones for
// MIN, zeros for MAX), which never beats a real value; the filter is
// non-empty, so some slot holds one.
std::optional<std::uint64_t> ExtremeVbpMt(ParallelExecutor& ex,
                                          const VbpColumn& column,
                                          const FilterBitVector& filter,
                                          bool is_min,
                                          const CancelContext* cancel) {
  if (par::Count(ex, filter) == 0) return std::nullopt;
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t words = static_cast<std::size_t>(slots) * kSlotTempWords;
  if (!ex.AccountScratch(words * sizeof(Word))) return std::nullopt;
  std::vector<Word> temps(words);
  for (int i = 0; i < slots; ++i) {
    InitSlotExtremeVbp(k, is_min, temps.data() + i * kSlotTempWords);
  }
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   SlotExtremeRangeVbp(column, filter, b, e, is_min,
                                       temps.data() + slot * kSlotTempWords);
                 });
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  std::uint64_t best = 0;
  for (int i = 0; i < slots; ++i) {
    const std::uint64_t v =
        ExtremeOfSlotsVbp(temps.data() + i * kSlotTempWords, k, is_min);
    if (i == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

std::optional<std::uint64_t> ExtremeHbpMt(ParallelExecutor& ex,
                                          const HbpColumn& column,
                                          const FilterBitVector& filter,
                                          bool is_min,
                                          const CancelContext* cancel) {
  if (par::Count(ex, filter) == 0) return std::nullopt;
  const int slots = ex.max_slots();
  const std::size_t words = static_cast<std::size_t>(slots) * kSlotTempWords;
  if (!ex.AccountScratch(words * sizeof(Word))) return std::nullopt;
  std::vector<Word> temps(words);
  for (int i = 0; i < slots; ++i) {
    InitSubSlotExtremeHbp(column, is_min, temps.data() + i * kSlotTempWords);
  }
  ex.ParallelFor(NumQuads(column), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   SubSlotExtremeRangeHbp(
                       column, filter, b, e, is_min,
                       temps.data() + slot * kSlotTempWords);
                 });
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  std::uint64_t best = 0;
  for (int i = 0; i < slots; ++i) {
    const std::uint64_t v = ExtremeOfSubSlotsHbp(
        column, temps.data() + i * kSlotTempWords, is_min);
    if (i == 0 || (is_min ? v < best : v > best)) best = v;
  }
  return best;
}

}  // namespace

std::optional<std::uint64_t> MinVbp(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeVbpMt(ex, column, filter, /*is_min=*/true, cancel);
}
std::optional<std::uint64_t> MaxVbp(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeVbpMt(ex, column, filter, /*is_min=*/false, cancel);
}
std::optional<std::uint64_t> MinHbp(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeHbpMt(ex, column, filter, /*is_min=*/true, cancel);
}
std::optional<std::uint64_t> MaxHbp(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  return ExtremeHbpMt(ex, column, filter, /*is_min=*/false, cancel);
}

std::optional<std::uint64_t> RankSelectVbp(ParallelExecutor& ex,
                                           const VbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const int slots = ex.max_slots();
  ICP_CHECK_LE(slots, kMaxThreads);
  std::uint64_t u = par::Count(ex, filter);
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t quads = NumQuads(column);
  if (!ex.AccountScratch(quads * 4 * sizeof(Word))) return std::nullopt;
  WordBuffer v(quads * 4);
  std::copy_n(filter.words(), filter.num_segments(), v.data());

  const int k = column.bit_width();
  const int tau = column.tau();
  const kern::KernelOps& ops = kern::Ops();
  std::uint64_t partial[kMaxThreads];
  std::uint64_t result = 0;
  for (int jb = 0; jb < k; ++jb) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    const int g = jb / tau;
    const int j = jb - g * tau;
    const int width = column.GroupWidth(g);
    std::fill(partial, partial + slots, 0);
    ex.ParallelFor(quads, cancel,
                   [&](int slot, std::size_t qb, std::size_t qe) {
                     partial[slot] += ops.masked_popcount(
                         column.GroupData(g) + (qb * width + j) * 4,
                         static_cast<std::size_t>(width) * 4, /*lanes=*/4,
                         v.data() + qb * 4, qe - qb);
                   });
    std::uint64_t c = 0;
    for (int i = 0; i < slots; ++i) c += partial[i];
    const bool bit_is_one = u - c < r;
    if (bit_is_one) {
      result |= std::uint64_t{1} << (k - 1 - jb);
      r -= u - c;
      u = c;
    } else {
      u -= c;
    }
    ex.ParallelFor(quads, cancel, [&](int, std::size_t qb, std::size_t qe) {
      for (std::size_t q = qb; q < qe; ++q) {
        Word256 cand = Word256::Load(v.data() + q * 4);
        if (cand.IsZero()) continue;
        const Word* ptr = column.GroupData(g) + (q * width + j) * 4;
        const Word256 x = Word256::Load(ptr);
        cand = bit_is_one ? (cand & x) : AndNot(x, cand);
        cand.Store(v.data() + q * 4);
      }
    });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

std::optional<std::uint64_t> RankSelectHbp(ParallelExecutor& ex,
                                           const HbpColumn& column,
                                           const FilterBitVector& filter,
                                           std::uint64_t r,
                                           const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 4);
  const std::uint64_t u = par::Count(ex, filter);
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t quads = NumQuads(column);
  const int s = column.field_width();
  const int tau = column.tau();
  const std::size_t bins = std::size_t{1} << tau;
  const int slots = ex.max_slots();
  const std::size_t scratch =
      quads * 4 * sizeof(Word) +
      static_cast<std::size_t>(slots) * bins * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  WordBuffer v(quads * 4);
  std::copy_n(filter.words(), filter.num_segments(), v.data());

  const Word dm_scalar = DelimiterMask(s);
  const Word256 dm = Word256::Broadcast(dm_scalar);
  const Word value_mask = LowMask(tau);
  std::vector<std::uint64_t> hists(static_cast<std::size_t>(slots) * bins);

  std::uint64_t result = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    std::fill(hists.begin(), hists.end(), 0);
    ex.ParallelFor(quads, cancel,
                   [&](int slot, std::size_t qb, std::size_t qe) {
                     std::uint64_t* hist = hists.data() + slot * bins;
                     for (std::size_t q = qb; q < qe; ++q) {
                       for (int lane = 0; lane < 4; ++lane) {
                         const Word cand = v[q * 4 + lane];
                         if (cand == 0) continue;
                         for (int t = 0; t < s; ++t) {
                           Word md = (cand << t) & dm_scalar;
                           const Word w =
                               column.GroupData(g)[(q * s + t) * 4 + lane];
                           while (md != 0) {
                             const int p = CountTrailingZeros(md);
                             md &= md - 1;
                             ++hist[(w >> (p - tau)) & value_mask];
                           }
                         }
                       }
                     }
                   });
    // A cancelled histogram pass may not cover all candidates; bail out
    // before the cumulative walk uses it.
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    for (int i = 1; i < slots; ++i) {
      for (std::size_t b = 0; b < bins; ++b) hists[b] += hists[i * bins + b];
    }
    std::uint64_t cum = 0;
    std::uint64_t bin = 0;
    while (cum + hists[bin] < r) {
      cum += hists[bin];
      ++bin;
    }
    r -= cum;
    result |= bin << column.GroupShift(g);
    if (g + 1 < column.num_groups()) {
      const Word256 packed_bin = Word256::Broadcast(RepeatField(bin, s));
      ex.ParallelFor(quads, cancel, [&](int, std::size_t qb, std::size_t qe) {
        for (std::size_t q = qb; q < qe; ++q) {
          Word256 cand = Word256::Load(v.data() + q * 4);
          if (cand.IsZero()) continue;
          const Word* base = column.GroupData(g) + q * s * 4;
          Word256 matches = Word256::Zero();
          for (int t = 0; t < s; ++t) {
            const Word256 x = Word256::Load(base + t * 4);
            const Word256 eq =
                FieldGe256(x, packed_bin, dm) & FieldGe256(packed_bin, x, dm);
            matches = matches | eq.Shr64(t);
          }
          (cand & matches).Store(v.data() + q * 4);
        }
      });
    }
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

std::optional<std::uint64_t> MedianVbp(ParallelExecutor& ex,
                                       const VbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel) {
  const std::uint64_t count = par::Count(ex, filter);
  if (count == 0) return std::nullopt;
  return RankSelectVbp(ex, column, filter, LowerMedianRank(count), cancel);
}

std::optional<std::uint64_t> MedianHbp(ParallelExecutor& ex,
                                       const HbpColumn& column,
                                       const FilterBitVector& filter,
                                       const CancelContext* cancel) {
  const std::uint64_t count = par::Count(ex, filter);
  if (count == 0) return std::nullopt;
  return RankSelectHbp(ex, column, filter, LowerMedianRank(count), cancel);
}

AggregateResult AggregateVbp(ParallelExecutor& ex, const VbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank, const CancelContext* cancel,
                             AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathVbp);
  AggregateResult result;
  result.kind = kind;
  result.count = par::Count(ex, filter);
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = SumVbp(ex, column, filter, cancel);
      break;
    case AggKind::kMin:
      result.value = MinVbp(ex, column, filter, cancel);
      break;
    case AggKind::kMax:
      result.value = MaxVbp(ex, column, filter, cancel);
      break;
    case AggKind::kMedian:
      result.value = MedianVbp(ex, column, filter, cancel);
      break;
    case AggKind::kRank:
      result.value = RankSelectVbp(ex, column, filter, rank, cancel);
      break;
  }
  if (kind != AggKind::kCount) CountFilterSegments(filter, stats);
  return result;
}

AggregateResult AggregateHbp(ParallelExecutor& ex, const HbpColumn& column,
                             const FilterBitVector& filter, AggKind kind,
                             std::uint64_t rank, const CancelContext* cancel,
                             AggStats* stats) {
  ICP_OBS_INCREMENT(AggPathHbp);
  AggregateResult result;
  result.kind = kind;
  result.count = par::Count(ex, filter);
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      result.sum = SumHbp(ex, column, filter, cancel);
      break;
    case AggKind::kMin:
      result.value = MinHbp(ex, column, filter, cancel);
      break;
    case AggKind::kMax:
      result.value = MaxHbp(ex, column, filter, cancel);
      break;
    case AggKind::kMedian:
      result.value = MedianHbp(ex, column, filter, cancel);
      break;
    case AggKind::kRank:
      result.value = RankSelectHbp(ex, column, filter, rank, cancel);
      break;
  }
  if (kind != AggKind::kCount) CountFilterSegments(filter, stats);
  return result;
}

}  // namespace icp::simd
