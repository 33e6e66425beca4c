#include "layout/hbp_column.h"

#include <algorithm>

namespace icp {

HbpColumn HbpColumn::Pack(const std::uint64_t* codes, std::size_t n, int k,
                          Options options) {
  ICP_CHECK(k >= 1 && k <= kWordBits - 1);
  const int tau = options.tau == 0 ? DefaultHbpTau(k) : options.tau;
  ICP_CHECK(tau >= 1 && tau <= kWordBits - 1);
  ICP_CHECK(options.lanes == 1 || options.lanes == 4);

  HbpColumn col;
  col.num_values_ = n;
  col.k_ = k;
  col.tau_ = tau;
  col.lanes_ = options.lanes;
  col.num_groups_ = static_cast<int>(CeilDiv(k, tau));
  const int s = tau + 1;
  col.fields_per_word_ = kWordBits / s;
  ICP_CHECK_GE(col.fields_per_word_, 1);

  const int vps = s * col.fields_per_word_;
  const std::size_t raw_segments = CeilDiv(n, vps);
  col.num_segments_ = CeilDiv(raw_segments, options.lanes) * options.lanes;
  if (col.num_segments_ == 0) col.num_segments_ = options.lanes;

  col.groups_.reserve(col.num_groups_);
  for (int g = 0; g < col.num_groups_; ++g) {
    col.groups_.emplace_back(col.num_segments_ * s);
  }
  if (!col.storage_ok()) return col;  // caller surfaces the failed alloc

  // One word at a time: sub-segment t of segment seg holds values
  // r = f * s + t at field f, so each (group, sub-segment) word is built
  // in a register from its m codes and stored once. Padding fields and
  // segments stay 0.
  const Word group_mask = LowMask(tau);
  const int m = col.fields_per_word_;
  for (std::size_t seg = 0; seg < raw_segments; ++seg) {
    const std::size_t first = seg * static_cast<std::size_t>(vps);
    const std::size_t count =
        std::min<std::size_t>(static_cast<std::size_t>(vps), n - first);
    const std::uint64_t* seg_codes = codes + first;
    for (int t = 0; t < s; ++t) {
      for (int g = 0; g < col.num_groups_; ++g) {
        const int shift = col.GroupShift(g);
        Word w = 0;
        for (int f = 0; f < m; ++f) {
          const std::size_t r = static_cast<std::size_t>(f * s + t);
          if (r >= count) break;
          ICP_DCHECK(seg_codes[r] < (std::uint64_t{1} << k));
          w |= ((seg_codes[r] >> shift) & group_mask)
               << (kWordBits - (f + 1) * s);
        }
        col.groups_[g][col.WordIndex(g, seg, t)] = w;
      }
    }
  }
  return col;
}

std::uint64_t HbpColumn::GetValue(std::size_t i) const {
  ICP_DCHECK(i < num_values_);
  const int s = field_width();
  const int vps = values_per_segment();
  const std::size_t seg = i / vps;
  const int r = static_cast<int>(i % vps);
  const int t = r % s;
  const int f = r / s;
  const int field_shift = kWordBits - (f + 1) * s;
  const Word group_mask = LowMask(tau_);
  std::uint64_t v = 0;
  for (int g = 0; g < num_groups_; ++g) {
    const Word group_value =
        (groups_[g][WordIndex(g, seg, t)] >> field_shift) & group_mask;
    v |= group_value << GroupShift(g);
  }
  return v;
}

std::size_t HbpColumn::MemoryBytes() const {
  std::size_t words = 0;
  for (const auto& group : groups_) words += group.size();
  return words * sizeof(Word);
}

}  // namespace icp
