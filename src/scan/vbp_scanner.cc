#include "scan/vbp_scanner.h"

#include <array>
#include <cstddef>

#include "obs/obs.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp {
namespace {

// The registry kernels take CompareOp as a raw int (the dispatch layer is a
// leaf library); pin the encoding they document.
static_assert(static_cast<int>(CompareOp::kEq) == 0 &&
                  static_cast<int>(CompareOp::kNe) == 1 &&
                  static_cast<int>(CompareOp::kLt) == 2 &&
                  static_cast<int>(CompareOp::kLe) == 3 &&
                  static_cast<int>(CompareOp::kGt) == 4 &&
                  static_cast<int>(CompareOp::kGe) == 5 &&
                  static_cast<int>(CompareOp::kBetween) == 6,
              "kern::vbp_scan op encoding out of sync with CompareOp");

// Constant bits, MSB first (index j = 0 is the value's most significant
// bit), for both constants.
void BuildConstantBits(int k, std::uint64_t c1, std::uint64_t c2,
                       bool* c1_bits, bool* c2_bits) {
  for (int j = 0; j < k; ++j) {
    c1_bits[j] = (c1 >> (k - 1 - j)) & 1;
    c2_bits[j] = (c2 >> (k - 1 - j)) & 1;
  }
}

}  // namespace

FilterBitVector VbpScanner::Scan(const VbpColumn& column, CompareOp op,
                                 std::uint64_t c1, std::uint64_t c2,
                                 ScanStats* stats,
                                 const CancelContext* cancel) {
  FilterBitVector out(column.num_values(), VbpColumn::kValuesPerSegment);
  ForEachCancellableBatch(cancel, 0, out.num_segments(),
                          [&](std::size_t b, std::size_t e) {
                            ScanRange(column, op, c1, c2, b, e, &out, stats);
                          });
  return out;
}

void VbpScanner::ScanRange(const VbpColumn& column, CompareOp op,
                           std::uint64_t c1, std::uint64_t c2,
                           std::size_t seg_begin, std::size_t seg_end,
                           FilterBitVector* out, ScanStats* stats) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_EQ(out->values_per_segment(), VbpColumn::kValuesPerSegment);
  ICP_CHECK_LE(seg_end, out->num_segments());
  const int k = column.bit_width();

  bool all = false;
  if (ScanIsDegenerate(k, op, c1, &c2, &all)) {
    // cancellation: exempt — ScanRange covers one cancel batch; the
    // caller (ForEachCancellableBatch / per-morsel driver) polls
    // between batches.
    for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
      out->SetSegmentWord(seg, all ? out->ValidMask(seg) : 0);
    }
    return;
  }

  std::array<bool, kWordBits> c1_bits{};
  std::array<bool, kWordBits> c2_bits{};
  BuildConstantBits(k, c1, c2, c1_bits.data(), c2_bits.data());

  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  int widths[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    widths[g] = column.GroupWidth(g);
    bases[g] = column.GroupData(g) + seg_begin * widths[g];
  }

  ScanStats local;
  Word* out_words = out->words() + seg_begin;
  kern::Ops().vbp_scan(bases, widths, num_groups, column.tau(),
                       static_cast<int>(op), c1_bits.data(), c2_bits.data(),
                       seg_end - seg_begin, /*prior=*/nullptr, out_words,
                       stats != nullptr ? &local : nullptr);
  // cancellation: exempt — ScanRange covers one cancel batch; the
  // caller (ForEachCancellableBatch / per-morsel driver) polls
  // between batches.
  for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
    out->words()[seg] &= out->ValidMask(seg);
  }
  MergeScanStats(local, stats);
}

FilterBitVector VbpScanner::ScanAnd(const VbpColumn& column, CompareOp op,
                                    std::uint64_t c1, std::uint64_t c2,
                                    const FilterBitVector& prior,
                                    ScanStats* stats,
                                    const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_EQ(prior.num_values(), column.num_values());
  ICP_CHECK_EQ(prior.values_per_segment(), VbpColumn::kValuesPerSegment);
  FilterBitVector out(column.num_values(), VbpColumn::kValuesPerSegment);
  const int k = column.bit_width();

  bool all = false;
  if (ScanIsDegenerate(k, op, c1, &c2, &all)) {
    if (all) {
      out = prior;
    }
    return out;
  }
  std::array<bool, kWordBits> c1_bits{};
  std::array<bool, kWordBits> c2_bits{};
  BuildConstantBits(k, c1, c2, c1_bits.data(), c2_bits.data());

  const int num_groups = column.num_groups();
  const kern::KernelOps& ops = kern::Ops();
  ScanStats local;
  ForEachCancellableBatch(
      cancel, 0, out.num_segments(), [&](std::size_t b, std::size_t e) {
        const Word* bases[kWordBits];
        int widths[kWordBits];
        for (int g = 0; g < num_groups; ++g) {
          widths[g] = column.GroupWidth(g);
          bases[g] = column.GroupData(g) + b * widths[g];
        }
        // prior bits are a subset of the valid mask, so `result & prior`
        // needs no further masking.
        ops.vbp_scan(bases, widths, num_groups, column.tau(),
                     static_cast<int>(op), c1_bits.data(), c2_bits.data(),
                     e - b, prior.words() + b, out.words() + b,
                     stats != nullptr ? &local : nullptr);
      });
  MergeScanStats(local, stats);
  return out;
}

}  // namespace icp
