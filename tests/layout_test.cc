#include "layout/layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "layout/hbp_column.h"
#include "layout/naive_column.h"
#include "layout/vbp_column.h"
#include "util/random.h"

namespace icp {
namespace {

std::vector<std::uint64_t> RandomCodes(std::size_t n, int k,
                                       std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::uint64_t> codes(n);
  const std::uint64_t max_code = LowMask(k);
  for (auto& c : codes) c = rng.UniformInt(0, max_code);
  return codes;
}

TEST(LayoutTest, DefaultVbpTauIsPaperValue) {
  EXPECT_EQ(DefaultVbpTau(25), 4);
  EXPECT_EQ(DefaultVbpTau(12), 4);
  EXPECT_EQ(DefaultVbpTau(3), 3);  // never wider than the value
  EXPECT_EQ(DefaultVbpTau(1), 1);
}

TEST(LayoutTest, DefaultHbpTauBasics) {
  // For tiny k the whole value fits one group.
  EXPECT_EQ(DefaultHbpTau(1), 1);
  EXPECT_EQ(DefaultHbpTau(3), 3);
  for (int k = 1; k <= 50; ++k) {
    const int tau = DefaultHbpTau(k);
    EXPECT_GE(tau, 1) << k;
    EXPECT_LE(tau, 16) << k;
    // A word must hold at least one field.
    EXPECT_GE(FieldsPerWord(tau + 1), 1) << k;
  }
}

TEST(LayoutTest, LayoutToString) {
  EXPECT_STREQ(LayoutToString(Layout::kVbp), "VBP");
  EXPECT_STREQ(LayoutToString(Layout::kHbp), "HBP");
  EXPECT_STREQ(LayoutToString(Layout::kNaive), "Naive");
}

// ---------------------------------------------------------------------------
// VBP
// ---------------------------------------------------------------------------

TEST(VbpColumnTest, PaperFigure2Example) {
  // Fig. 2: values 1,7,2,1,6,0,2,7 with k = 3 (the paper uses w = 8; with
  // w = 64 the remaining slots are zero-padding).
  const std::vector<std::uint64_t> codes = {1, 7, 2, 1, 6, 0, 2, 7};
  const VbpColumn col = VbpColumn::Pack(codes, 3, {.tau = 3});
  ASSERT_EQ(col.num_groups(), 1);
  // Word for bit 0 (MSB): values' top bits are 0,1,0,0,1,0,0,1 -> in the
  // top 8 bits of the word: 01001001.
  EXPECT_EQ(col.WordAt(0, 0, 0) >> 56, 0b01001001u);
  EXPECT_EQ(col.WordAt(0, 0, 1) >> 56, 0b01101011u);
  EXPECT_EQ(col.WordAt(0, 0, 2) >> 56, 0b11010001u);
}

TEST(VbpColumnTest, GroupWidthsRagged) {
  const auto codes = RandomCodes(100, 25, 1);
  const VbpColumn col = VbpColumn::Pack(codes, 25, {.tau = 4});
  EXPECT_EQ(col.num_groups(), 7);
  for (int g = 0; g < 6; ++g) EXPECT_EQ(col.GroupWidth(g), 4);
  EXPECT_EQ(col.GroupWidth(6), 1);
}

class VbpRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(VbpRoundTripTest, PackThenGetValue) {
  const auto [k, tau, n] = GetParam();
  if (tau > k) GTEST_SKIP();
  const auto codes = RandomCodes(n, k, 42 + k * 131 + tau);
  const VbpColumn col = VbpColumn::Pack(codes, k, {.tau = tau});
  ASSERT_EQ(col.num_values(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, VbpRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 12, 17, 25, 33, 50,
                                         63),
                       ::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(1, 63, 64, 65, 200, 1000)));

TEST(VbpColumnTest, LaneInterleavingRoundTrip) {
  const auto codes = RandomCodes(1000, 13, 5);
  const VbpColumn col = VbpColumn::Pack(codes, 13, {.tau = 4, .lanes = 4});
  EXPECT_EQ(col.lanes(), 4);
  EXPECT_EQ(col.num_segments() % 4, 0u);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << i;
  }
}

TEST(VbpColumnTest, LaneInterleavedWordsMatchScalarWords) {
  const auto codes = RandomCodes(1000, 9, 6);
  const VbpColumn scalar = VbpColumn::Pack(codes, 9, {.tau = 3, .lanes = 1});
  const VbpColumn simd = VbpColumn::Pack(codes, 9, {.tau = 3, .lanes = 4});
  for (std::size_t seg = 0; seg < scalar.num_segments(); ++seg) {
    for (int g = 0; g < scalar.num_groups(); ++g) {
      for (int j = 0; j < scalar.GroupWidth(g); ++j) {
        ASSERT_EQ(scalar.WordAt(g, seg, j), simd.WordAt(g, seg, j));
      }
    }
  }
}

// Per-bit reference packers: every word of the packed column, padding
// included, must equal what setting one bit per (value, plane) gives. The
// packers transpose whole segments in registers; these spell out the
// layout contract of vbp_column.h / hbp_column.h independently.
std::vector<std::vector<Word>> ReferenceVbpWords(
    const std::vector<std::uint64_t>& codes, int k, int tau, int lanes) {
  if (tau == 0) tau = DefaultVbpTau(k);
  tau = std::min(tau, k);
  const int num_groups = (k + tau - 1) / tau;
  const std::size_t segments =
      (((codes.size() + 63) / 64 + lanes - 1) / lanes) * lanes;
  std::vector<std::vector<Word>> groups(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    const int width = std::min(tau, k - g * tau);
    groups[g].assign(segments * width, 0);
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::size_t seg = i / 64;
    for (int j = 0; j < k; ++j) {
      if (((codes[i] >> (k - 1 - j)) & 1) == 0) continue;
      const int g = j / tau;
      const int width = std::min(tau, k - g * tau);
      const std::size_t index =
          ((seg / lanes) * width + (j - g * tau)) * lanes + seg % lanes;
      groups[g][index] |= Word{1} << (63 - i % 64);
    }
  }
  return groups;
}

std::vector<std::vector<Word>> ReferenceHbpWords(
    const std::vector<std::uint64_t>& codes, int k, int tau, int lanes) {
  if (tau == 0) tau = DefaultHbpTau(k);
  const int num_groups = (k + tau - 1) / tau;
  const int s = tau + 1;
  const int vps = s * (64 / s);
  const std::size_t segments =
      (((codes.size() + vps - 1) / vps + lanes - 1) / lanes) * lanes;
  std::vector<std::vector<Word>> groups(num_groups,
                                        std::vector<Word>(segments * s, 0));
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::size_t seg = i / vps;
    const int r = static_cast<int>(i % vps);
    const int t = r % s;
    const int f = r / s;
    const std::size_t index = ((seg / lanes) * s + t) * lanes + seg % lanes;
    for (int g = 0; g < num_groups; ++g) {
      const int shift = (num_groups - 1 - g) * tau;
      const Word field = (codes[i] >> shift) & LowMask(tau);
      groups[g][index] |= field << (64 - (f + 1) * s);
    }
  }
  return groups;
}

// k x tau (0 = layout default) x lanes; every case packs each size in
// kPackSizes (ragged, exact and just-past segment and quad boundaries).
class PackReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

constexpr std::size_t kPackSizes[] = {1, 63, 64, 65, 255, 257, 4097};

int TauParam(int tau, int k) { return tau == -1 ? k : tau; }

TEST_P(PackReferenceTest, VbpPackMatchesPerBitReference) {
  const auto [k, tau_param, lanes] = GetParam();
  const int tau = TauParam(tau_param, k);
  for (const std::size_t n : kPackSizes) {
    const auto codes = RandomCodes(n, k, 1000 + n * 64 + k);
    const VbpColumn col =
        VbpColumn::Pack(codes, k, {.tau = tau, .lanes = lanes});
    const auto expected = ReferenceVbpWords(codes, k, tau, lanes);
    ASSERT_EQ(col.num_groups(), static_cast<int>(expected.size()))
        << "n=" << n;
    for (int g = 0; g < col.num_groups(); ++g) {
      ASSERT_EQ(col.GroupWordCount(g), expected[g].size())
          << "n=" << n << " g=" << g;
      for (std::size_t w = 0; w < expected[g].size(); ++w) {
        ASSERT_EQ(col.GroupData(g)[w], expected[g][w])
            << "n=" << n << " g=" << g << " word=" << w;
      }
    }
  }
}

TEST_P(PackReferenceTest, HbpPackMatchesPerFieldReference) {
  const auto [k, tau_param, lanes] = GetParam();
  const int tau = TauParam(tau_param, k);
  for (const std::size_t n : kPackSizes) {
    const auto codes = RandomCodes(n, k, 2000 + n * 64 + k);
    const HbpColumn col =
        HbpColumn::Pack(codes, k, {.tau = tau, .lanes = lanes});
    const auto expected = ReferenceHbpWords(codes, k, tau, lanes);
    ASSERT_EQ(col.num_groups(), static_cast<int>(expected.size()))
        << "n=" << n;
    for (int g = 0; g < col.num_groups(); ++g) {
      ASSERT_EQ(col.GroupWordCount(g), expected[g].size())
          << "n=" << n << " g=" << g;
      for (std::size_t w = 0; w < expected[g].size(); ++w) {
        ASSERT_EQ(col.GroupData(g)[w], expected[g][w])
            << "n=" << n << " g=" << g << " word=" << w;
      }
    }
  }
}

// tau -1 stands for tau = k (one bit-group spanning the whole code).
INSTANTIATE_TEST_SUITE_P(
    Grid, PackReferenceTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 31, 32, 33, 63),
                       ::testing::Values(0, 1, 3, -1),
                       ::testing::Values(1, 4)));

TEST(VbpColumnTest, MemoryBytesMatchesKBitsPerValue) {
  const auto codes = RandomCodes(64 * 100, 10, 7);
  const VbpColumn col = VbpColumn::Pack(codes, 10, {.tau = 4});
  // Exactly k words per 64-value segment.
  EXPECT_EQ(col.MemoryBytes(), 100u * 10 * sizeof(Word));
}

// ---------------------------------------------------------------------------
// HBP
// ---------------------------------------------------------------------------

TEST(HbpColumnTest, PaperFigure3Geometry) {
  // k = 3, tau = 3 (no bit-groups): s = 4, m = 16 slots per 64-bit word,
  // 4 sub-segments, vps = 64.
  const auto codes = RandomCodes(128, 3, 8);
  const HbpColumn col = HbpColumn::Pack(codes, 3, {.tau = 3});
  EXPECT_EQ(col.field_width(), 4);
  EXPECT_EQ(col.fields_per_word(), 16);
  EXPECT_EQ(col.sub_segments_per_segment(), 4);
  EXPECT_EQ(col.values_per_segment(), 64);
  EXPECT_EQ(col.num_groups(), 1);
}

TEST(HbpColumnTest, ColumnFirstPacking) {
  // Paper Fig. 3a: v1 -> W1, v2 -> W2, ..., v5 -> W1 again.
  // With k = 3, values 1..8 in the first segment: sub-segment 0's word must
  // hold v1 in slot 0 and v5 in slot 1.
  std::vector<std::uint64_t> codes = {1, 2, 3, 4, 5, 6, 7, 0};
  const HbpColumn col = HbpColumn::Pack(codes, 3, {.tau = 3});
  const Word w0 = col.WordAt(0, 0, 0);
  EXPECT_EQ((w0 >> 60) & 0xF, 1u);  // v1 (delimiter 0 + value 001)
  EXPECT_EQ((w0 >> 56) & 0xF, 5u);  // v5
  const Word w1 = col.WordAt(0, 0, 1);
  EXPECT_EQ((w1 >> 60) & 0xF, 2u);  // v2
  EXPECT_EQ((w1 >> 56) & 0xF, 6u);  // v6
}

TEST(HbpColumnTest, DelimiterBitsAlwaysClear) {
  const auto codes = RandomCodes(500, 6, 9);
  const HbpColumn col = HbpColumn::Pack(codes, 6, {.tau = 3});
  const Word md = DelimiterMask(col.field_width());
  for (int g = 0; g < col.num_groups(); ++g) {
    for (std::size_t w = 0; w < col.GroupWordCount(g); ++w) {
      ASSERT_EQ(col.GroupData(g)[w] & md, 0u);
    }
  }
}

class HbpRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HbpRoundTripTest, PackThenGetValue) {
  const auto [k, tau, n] = GetParam();
  const auto codes = RandomCodes(n, k, 99 + k * 17 + tau);
  const HbpColumn col = HbpColumn::Pack(codes, k, {.tau = tau});
  ASSERT_EQ(col.num_values(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, HbpRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 12, 17, 25, 33, 50,
                                         63),
                       ::testing::Values(1, 2, 3, 4, 7, 11, 16),
                       ::testing::Values(1, 59, 60, 61, 200, 1000)));

TEST(HbpColumnTest, AutoTauRoundTrip) {
  for (int k : {1, 2, 5, 13, 25, 40, 63}) {
    const auto codes = RandomCodes(300, k, 100 + k);
    const HbpColumn col = HbpColumn::Pack(codes, k);  // auto tau
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(col.GetValue(i), codes[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(HbpColumnTest, LaneInterleavingRoundTrip) {
  const auto codes = RandomCodes(777, 11, 10);
  const HbpColumn col = HbpColumn::Pack(codes, 11, {.tau = 4, .lanes = 4});
  EXPECT_EQ(col.lanes(), 4);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(col.GetValue(i), codes[i]) << i;
  }
}

TEST(HbpColumnTest, GroupShift) {
  const auto codes = RandomCodes(10, 10, 11);
  const HbpColumn col = HbpColumn::Pack(codes, 10, {.tau = 4});
  // B = ceil(10/4) = 3 groups; shifts 8, 4, 0.
  ASSERT_EQ(col.num_groups(), 3);
  EXPECT_EQ(col.GroupShift(0), 8);
  EXPECT_EQ(col.GroupShift(1), 4);
  EXPECT_EQ(col.GroupShift(2), 0);
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

TEST(NaiveColumnTest, RoundTrip) {
  const auto codes = RandomCodes(100, 20, 12);
  const NaiveColumn col = NaiveColumn::Pack(codes, 20);
  EXPECT_EQ(col.num_values(), 100u);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(col.GetValue(i), codes[i]);
  }
  EXPECT_EQ(col.MemoryBytes(), 100u * sizeof(Word));
}

}  // namespace
}  // namespace icp
