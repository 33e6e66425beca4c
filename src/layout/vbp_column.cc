#include "layout/vbp_column.h"

#include <algorithm>

namespace icp {
namespace {

// One round of the 64x64 bit-matrix transpose below: swaps the
// off-diagonal W x W blocks of every 2W x 2W block. W is a template
// argument so each round unrolls and vectorizes.
template <int W>
void TransposeRound(Word* rows) {
  // W ones, W zeros, repeated: the low half of every 2W-bit block.
  constexpr Word kMask = ~Word{0} / ((Word{1} << W) + 1);
  for (int base = 0; base < kWordBits; base += 2 * W) {
    for (int r = base; r < base + W; ++r) {
      const Word t = (rows[r] ^ (rows[r + W] >> W)) & kMask;
      rows[r] ^= t;
      rows[r + W] ^= t << W;
    }
  }
}

// In-place transpose of a 64x64 bit matrix whose row r is rows[r] with
// column c at bit 63 - c (Hacker's Delight 7-3, widened to 64 bits). After
// it, rows[c] bit 63 - r holds what rows[r] bit 63 - c held.
void Transpose64(Word* rows) {
  TransposeRound<32>(rows);
  TransposeRound<16>(rows);
  TransposeRound<8>(rows);
  TransposeRound<4>(rows);
  TransposeRound<2>(rows);
  TransposeRound<1>(rows);
}

}  // namespace

VbpColumn VbpColumn::Pack(const std::uint64_t* codes, std::size_t n, int k,
                          Options options) {
  ICP_CHECK(k >= 1 && k <= kWordBits - 1);
  // A bit-group wider than the value is meaningless; clamp so column specs
  // can reuse one tau across columns of different widths.
  int tau = options.tau == 0 ? DefaultVbpTau(k) : options.tau;
  if (tau > k) tau = k;
  ICP_CHECK_GE(tau, 1);
  ICP_CHECK(options.lanes == 1 || options.lanes == 4);

  VbpColumn col;
  col.num_values_ = n;
  col.k_ = k;
  col.tau_ = tau;
  col.lanes_ = options.lanes;
  const std::size_t raw_segments = CeilDiv(n, kValuesPerSegment);
  col.num_segments_ =
      CeilDiv(raw_segments, options.lanes) * options.lanes;
  // num_segments_ must be >= 1 so kernels can assume non-empty columns.
  if (col.num_segments_ == 0) col.num_segments_ = options.lanes;

  const int num_groups = static_cast<int>(CeilDiv(k, tau));
  col.groups_.reserve(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    const int width = g + 1 < num_groups ? tau : k - g * tau;
    col.groups_.emplace_back(col.num_segments_ * width);
  }
  if (!col.storage_ok()) return col;  // caller surfaces the failed alloc

  // One segment at a time: its 64 codes are the rows of a bit matrix
  // (slot i in row i, so the paper's v_1 lands in bit 63 after the
  // transpose), and transposed row 63 - b is the plane of code bit b.
  // Plane j (0 = most significant) is therefore row 64 - k + j; each is
  // stored once, straight to its word. Padding slots and segments stay 0.
  Word rows[kWordBits];
  for (std::size_t seg = 0; seg < raw_segments; ++seg) {
    const std::size_t first = seg * kValuesPerSegment;
    const std::size_t count =
        std::min<std::size_t>(kValuesPerSegment, n - first);
    std::copy_n(codes + first, count, rows);
    std::fill(rows + count, rows + kWordBits, Word{0});
    for (std::size_t i = 0; i < count; ++i) {
      ICP_DCHECK(rows[i] < (std::uint64_t{1} << k));
    }
    Transpose64(rows);
    const Word* planes = rows + (kWordBits - k);
    for (int g = 0; g < num_groups; ++g) {
      Word* group = col.groups_[g].data();
      const int width = col.GroupWidth(g);
      for (int jj = 0; jj < width; ++jj) {
        group[col.WordIndex(g, seg, jj)] = planes[g * tau + jj];
      }
    }
  }
  return col;
}

std::uint64_t VbpColumn::GetValue(std::size_t i) const {
  ICP_DCHECK(i < num_values_);
  const std::size_t seg = i / kValuesPerSegment;
  const int bit_pos = kWordBits - 1 - static_cast<int>(i % kValuesPerSegment);
  std::uint64_t v = 0;
  for (int j = 0; j < k_; ++j) {
    const int g = j / tau_;
    const int jj = j - g * tau_;
    const Word w = groups_[g][WordIndex(g, seg, jj)];
    v |= ((w >> bit_pos) & 1) << (k_ - 1 - j);
  }
  return v;
}

std::size_t VbpColumn::MemoryBytes() const {
  std::size_t words = 0;
  for (const auto& group : groups_) words += group.size();
  return words * sizeof(Word);
}

}  // namespace icp
