#include "parallel/parallel_aggregate.h"

#include <vector>

#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp::par {
namespace {

constexpr int kMaxThreads = 256;

}  // namespace

std::uint64_t Count(ParallelExecutor& ex, const FilterBitVector& filter) {
  // Zero-initialized and folded with += because a morsel executor hands
  // one slot many disjoint subranges.
  std::uint64_t partial[kMaxThreads] = {};
  ICP_CHECK_LE(ex.max_slots(), kMaxThreads);
  const Word* words = filter.words();
  const kern::KernelOps& ops = kern::Ops();
  ex.ParallelFor(filter.num_segments(), nullptr,
                 [&](int slot, std::size_t b, std::size_t e) {
                   partial[slot] += ops.popcount_words(words + b, e - b);
                 });
  std::uint64_t total = 0;
  for (int i = 0; i < ex.max_slots(); ++i) total += partial[i];
  return total;
}

UInt128 Sum(ParallelExecutor& ex, const VbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return UInt128{};
  std::vector<std::uint64_t> bit_sums(
      static_cast<std::size_t>(slots) * kWordBits, 0);
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   vbp::AccumulateBitSums(column, filter, b, e,
                                          bit_sums.data() + slot * kWordBits);
                 });
  for (int i = 1; i < slots; ++i) {
    for (int j = 0; j < k; ++j) {
      bit_sums[j] += bit_sums[i * kWordBits + j];
    }
  }
  return vbp::CombineBitSums(bit_sums.data(), k);
}

UInt128 Sum(ParallelExecutor& ex, const HbpColumn& column,
            const FilterBitVector& filter, const CancelContext* cancel) {
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return UInt128{};
  std::vector<std::uint64_t> group_sums(
      static_cast<std::size_t>(slots) * kWordBits, 0);
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   hbp::AccumulateGroupSums(
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

std::optional<std::uint64_t> ExtremeVbp(ParallelExecutor& ex,
                                        const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        bool is_min,
                                        const CancelContext* cancel,
                                        AggStats* stats) {
  if (Count(ex, filter) == 0) return std::nullopt;
  const int k = column.bit_width();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(Word);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> temps(static_cast<std::size_t>(slots) * kWordBits);
  ICP_CHECK_LE(slots, kMaxThreads);
  AggStats locals[kMaxThreads];
  // Slot state is initialized up front on the calling thread: a morsel
  // executor invokes fn once per morsel, not once per slot.
  for (int i = 0; i < slots; ++i) {
    vbp::InitSlotExtreme(k, is_min, temps.data() + i * kWordBits);
  }
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   vbp::SlotExtremeRange(
                       column, filter, b, e, is_min,
                       temps.data() + slot * kWordBits,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  AddSlotAggStats(locals, slots, stats);
  for (int i = 1; i < slots; ++i) {
    vbp::MergeSlotExtreme(temps.data() + i * kWordBits, k, is_min,
                          temps.data());
  }
  return vbp::ExtremeOfSlots(temps.data(), k, is_min);
}

std::optional<std::uint64_t> ExtremeHbp(ParallelExecutor& ex,
                                        const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        bool is_min,
                                        const CancelContext* cancel,
                                        AggStats* stats) {
  if (Count(ex, filter) == 0) return std::nullopt;
  const int slots = ex.max_slots();
  const std::size_t scratch =
      static_cast<std::size_t>(slots) * kWordBits * sizeof(Word);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> temps(static_cast<std::size_t>(slots) * kWordBits);
  ICP_CHECK_LE(slots, kMaxThreads);
  AggStats locals[kMaxThreads];
  for (int i = 0; i < slots; ++i) {
    hbp::InitSubSlotExtreme(column, is_min, temps.data() + i * kWordBits);
  }
  ex.ParallelFor(filter.num_segments(), cancel,
                 [&](int slot, std::size_t b, std::size_t e) {
                   hbp::SubSlotExtremeRange(
                       column, filter, b, e, is_min,
                       temps.data() + slot * kWordBits,
                       stats != nullptr ? &locals[slot] : nullptr);
                 });
  AddSlotAggStats(locals, slots, stats);
  for (int i = 1; i < slots; ++i) {
    hbp::MergeSubSlotExtreme(column, temps.data() + i * kWordBits, is_min,
                             temps.data());
  }
  return hbp::ExtremeOfSubSlots(column, temps.data(), is_min);
}

}  // namespace

std::optional<std::uint64_t> Min(ParallelExecutor& ex, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return ExtremeVbp(ex, column, filter, /*is_min=*/true, cancel, stats);
}
std::optional<std::uint64_t> Max(ParallelExecutor& ex, const VbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return ExtremeVbp(ex, column, filter, /*is_min=*/false, cancel, stats);
}
std::optional<std::uint64_t> Min(ParallelExecutor& ex, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return ExtremeHbp(ex, column, filter, /*is_min=*/true, cancel, stats);
}
std::optional<std::uint64_t> Max(ParallelExecutor& ex, const HbpColumn& column,
                                 const FilterBitVector& filter,
                                 const CancelContext* cancel,
                                 AggStats* stats) {
  return ExtremeHbp(ex, column, filter, /*is_min=*/false, cancel, stats);
}

std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const VbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  std::uint64_t u = Count(ex, filter);
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = filter.num_segments();
  if (!ex.AccountScratch(num_segments * sizeof(Word))) return std::nullopt;
  std::vector<Word> v(filter.words(), filter.words() + num_segments);

  const int k = column.bit_width();
  const int tau = column.tau();
  const int slots = ex.max_slots();
  ICP_CHECK_LE(slots, kMaxThreads);
  std::uint64_t partial[kMaxThreads];
  std::uint64_t result = 0;
  for (int jb = 0; jb < k; ++jb) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    const int g = jb / tau;
    const int j = jb - g * tau;
    std::fill(partial, partial + slots, 0);
    // Parallel popcount reduce; workers synchronize on the global counter c
    // each iteration (the contention the paper attributes to VBP-MEDIAN).
    ex.ParallelFor(num_segments, cancel,
                   [&](int slot, std::size_t b, std::size_t e) {
                     partial[slot] +=
                         vbp::CountCandidateBit(column, v.data(), b, e, g, j);
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
    ex.ParallelFor(num_segments, cancel,
                   [&](int, std::size_t b, std::size_t e) {
                     vbp::UpdateCandidates(column, v.data(), b, e, g, j,
                                           bit_is_one);
                   });
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

std::optional<std::uint64_t> RankSelect(ParallelExecutor& ex,
                                        const HbpColumn& column,
                                        const FilterBitVector& filter,
                                        std::uint64_t r,
                                        const CancelContext* cancel) {
  const std::uint64_t u = Count(ex, filter);
  if (r < 1 || r > u) return std::nullopt;
  const std::size_t num_segments = filter.num_segments();
  const std::size_t bins = std::size_t{1} << column.tau();
  const int slots = ex.max_slots();
  const std::size_t scratch =
      num_segments * sizeof(Word) +
      static_cast<std::size_t>(slots) * bins * sizeof(std::uint64_t);
  if (!ex.AccountScratch(scratch)) return std::nullopt;
  std::vector<Word> v(filter.words(), filter.words() + num_segments);
  std::vector<std::uint64_t> hists(static_cast<std::size_t>(slots) * bins);

  std::uint64_t result = 0;
  for (int g = 0; g < column.num_groups(); ++g) {
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    std::fill(hists.begin(), hists.end(), 0);
    ex.ParallelFor(num_segments, cancel,
                   [&](int slot, std::size_t b, std::size_t e) {
                     hbp::BuildGroupHistogram(column, v.data(), b, e, g,
                                              hists.data() + slot * bins);
                   });
    // A cancelled histogram pass may not cover all candidates; the cumulative
    // walk below could then run past r. Bail out before using it.
    if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
    for (int i = 1; i < slots; ++i) {
      for (std::size_t b = 0; b < bins; ++b) {
        hists[b] += hists[i * bins + b];
      }
    }
    std::uint64_t cum = 0;
    std::uint64_t bin = 0;
    while (bin + 1 < bins && cum + hists[bin] < r) {
      cum += hists[bin];
      ++bin;
    }
    r -= cum;
    result |= bin << column.GroupShift(g);
    if (g + 1 < column.num_groups()) {
      ex.ParallelFor(num_segments, cancel,
                     [&](int, std::size_t b, std::size_t e) {
                       hbp::NarrowCandidates(column, v.data(), b, e, g, bin);
                     });
    }
  }
  if (cancel != nullptr && cancel->ShouldStop()) return std::nullopt;
  return result;
}

std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const VbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  const std::uint64_t count = Count(ex, filter);
  if (count == 0) return std::nullopt;
  return RankSelect(ex, column, filter, LowerMedianRank(count), cancel);
}

std::optional<std::uint64_t> Median(ParallelExecutor& ex,
                                    const HbpColumn& column,
                                    const FilterBitVector& filter,
                                    const CancelContext* cancel) {
  const std::uint64_t count = Count(ex, filter);
  if (count == 0) return std::nullopt;
  return RankSelect(ex, column, filter, LowerMedianRank(count), cancel);
}

}  // namespace icp::par
