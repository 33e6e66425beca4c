#include "scan/hbp_scanner.h"

#include <array>

#include "obs/obs.h"
#include "simd/dispatch.h"
#include "util/check.h"

namespace icp {
namespace {

static_assert(static_cast<int>(CompareOp::kEq) == 0 &&
                  static_cast<int>(CompareOp::kNe) == 1 &&
                  static_cast<int>(CompareOp::kLt) == 2 &&
                  static_cast<int>(CompareOp::kLe) == 3 &&
                  static_cast<int>(CompareOp::kGt) == 4 &&
                  static_cast<int>(CompareOp::kGe) == 5 &&
                  static_cast<int>(CompareOp::kBetween) == 6,
              "kern::hbp_scan op encoding out of sync with CompareOp");

// Packed per-group constants (the paper's word W_c, one per word-group).
void BuildPackedConstants(const HbpColumn& column, std::uint64_t c1,
                          std::uint64_t c2, Word* c1_packed,
                          Word* c2_packed) {
  const int s = column.field_width();
  const Word group_mask = LowMask(column.tau());
  for (int g = 0; g < column.num_groups(); ++g) {
    const int shift = column.GroupShift(g);
    c1_packed[g] = RepeatField((c1 >> shift) & group_mask, s);
    c2_packed[g] = RepeatField((c2 >> shift) & group_mask, s);
  }
}

}  // namespace

FilterBitVector HbpScanner::Scan(const HbpColumn& column, CompareOp op,
                                 std::uint64_t c1, std::uint64_t c2,
                                 ScanStats* stats,
                                 const CancelContext* cancel) {
  FilterBitVector out(column.num_values(), column.values_per_segment());
  ForEachCancellableBatch(cancel, 0, out.num_segments(),
                          [&](std::size_t b, std::size_t e) {
                            ScanRange(column, op, c1, c2, b, e, &out, stats);
                          });
  return out;
}

void HbpScanner::ScanRange(const HbpColumn& column, CompareOp op,
                           std::uint64_t c1, std::uint64_t c2,
                           std::size_t seg_begin, std::size_t seg_end,
                           FilterBitVector* out, ScanStats* stats) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_EQ(out->values_per_segment(), column.values_per_segment());
  ICP_CHECK_LE(seg_end, out->num_segments());
  const int k = column.bit_width();
  const int s = column.field_width();

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

  std::array<Word, kWordBits> c1_packed{};
  std::array<Word, kWordBits> c2_packed{};
  BuildPackedConstants(column, c1, c2, c1_packed.data(), c2_packed.data());

  const int num_groups = column.num_groups();
  const Word* bases[kWordBits];
  for (int g = 0; g < num_groups; ++g) {
    bases[g] = column.GroupData(g) + seg_begin * s;
  }

  ScanStats local;
  kern::Ops().hbp_scan(bases, num_groups, s, static_cast<int>(op),
                       c1_packed.data(), c2_packed.data(), DelimiterMask(s),
                       seg_end - seg_begin, /*prior=*/nullptr,
                       out->words() + seg_begin,
                       stats != nullptr ? &local : nullptr);
  // cancellation: exempt — ScanRange covers one cancel batch; the
  // caller (ForEachCancellableBatch / per-morsel driver) polls
  // between batches.
  for (std::size_t seg = seg_begin; seg < seg_end; ++seg) {
    out->words()[seg] &= out->ValidMask(seg);
  }
  MergeScanStats(local, stats);
}

FilterBitVector HbpScanner::ScanAnd(const HbpColumn& column, CompareOp op,
                                    std::uint64_t c1, std::uint64_t c2,
                                    const FilterBitVector& prior,
                                    ScanStats* stats,
                                    const CancelContext* cancel) {
  ICP_CHECK_EQ(column.lanes(), 1);
  ICP_CHECK_EQ(prior.num_values(), column.num_values());
  ICP_CHECK_EQ(prior.values_per_segment(), column.values_per_segment());
  FilterBitVector out(column.num_values(), column.values_per_segment());
  const int k = column.bit_width();
  const int s = column.field_width();

  bool all = false;
  if (ScanIsDegenerate(k, op, c1, &c2, &all)) {
    if (all) out = prior;
    return out;
  }
  std::array<Word, kWordBits> c1_packed{};
  std::array<Word, kWordBits> c2_packed{};
  BuildPackedConstants(column, c1, c2, c1_packed.data(), c2_packed.data());

  const int num_groups = column.num_groups();
  const kern::KernelOps& ops = kern::Ops();
  ScanStats local;
  ForEachCancellableBatch(
      cancel, 0, out.num_segments(), [&](std::size_t lo, std::size_t hi) {
        const Word* bases[kWordBits];
        for (int g = 0; g < num_groups; ++g) {
          bases[g] = column.GroupData(g) + lo * s;
        }
        // prior bits are a subset of the valid mask, so `result & prior`
        // needs no further masking.
        ops.hbp_scan(bases, num_groups, s, static_cast<int>(op),
                     c1_packed.data(), c2_packed.data(), DelimiterMask(s),
                     hi - lo, prior.words() + lo, out.words() + lo,
                     stats != nullptr ? &local : nullptr);
      });
  MergeScanStats(local, stats);
  return out;
}

}  // namespace icp
