#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/hbp_aggregate.h"
#include "core/vbp_aggregate.h"
#include "scan/hbp_scanner.h"
#include "scan/vbp_scanner.h"
#include "simd/hbp_simd.h"
#include "simd/simd_parallel.h"
#include "simd/vbp_simd.h"
#include "simd/word256.h"
#include "test_session.h"
#include "util/random.h"

namespace icp {
namespace {

std::vector<std::uint64_t> RandomCodes(std::size_t n, int k,
                                       std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(k));
  return codes;
}

// ---------------------------------------------------------------------------
// Word256 primitives
// ---------------------------------------------------------------------------

TEST(Word256Test, LoadStoreRoundTrip) {
  alignas(32) Word data[4] = {1, 2, 3, ~Word{0}};
  alignas(32) Word out[4];
  Word256::Load(data).Store(out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(Word256Test, LaneAccess) {
  alignas(32) Word data[4] = {10, 20, 30, 40};
  const Word256 w = Word256::Load(data);
  EXPECT_EQ(w.Lane(0), 10u);
  EXPECT_EQ(w.Lane(3), 40u);
}

TEST(Word256Test, BitwiseOps) {
  const Word256 a = Word256::Broadcast(0xF0F0F0F0F0F0F0F0ULL);
  const Word256 b = Word256::Broadcast(0xFF00FF00FF00FF00ULL);
  EXPECT_EQ((a & b).Lane(1), 0xF000F000F000F000ULL);
  EXPECT_EQ((a | b).Lane(2), 0xFFF0FFF0FFF0FFF0ULL);
  EXPECT_EQ((a ^ b).Lane(3), 0x0FF00FF00FF00FF0ULL);
  EXPECT_EQ((~a).Lane(0), 0x0F0F0F0F0F0F0F0FULL);
  EXPECT_EQ(AndNot(a, b).Lane(0), 0x0F000F000F000F00ULL);
}

TEST(Word256Test, LaneArithmeticIsIndependent) {
  alignas(32) Word a_data[4] = {~Word{0}, 5, 0, 100};
  alignas(32) Word b_data[4] = {1, 3, 0, 50};
  const Word256 sum = Add64(Word256::Load(a_data), Word256::Load(b_data));
  EXPECT_EQ(sum.Lane(0), 0u);  // wraps within the lane, no carry out
  EXPECT_EQ(sum.Lane(1), 8u);
  EXPECT_EQ(sum.Lane(3), 150u);
  const Word256 diff = Sub64(Word256::Load(b_data), Word256::Load(a_data));
  EXPECT_EQ(diff.Lane(0), 2u);  // borrow wraps within the lane
  EXPECT_EQ(diff.Lane(3), static_cast<Word>(-50));
}

TEST(Word256Test, Shifts) {
  const Word256 w = Word256::Broadcast(0x8000000000000001ULL);
  EXPECT_EQ(w.Shl64(1).Lane(0), 2u);
  EXPECT_EQ(w.Shr64(1).Lane(0), 0x4000000000000000ULL);
}

TEST(Word256Test, IsZeroAndPopcount) {
  EXPECT_TRUE(Word256::Zero().IsZero());
  EXPECT_FALSE(Word256::Broadcast(1).IsZero());
  EXPECT_EQ(Word256::Ones().PopcountSum(), 256);
  EXPECT_EQ(Word256::Broadcast(0xFF).PopcountSum(), 32);
}

// ---------------------------------------------------------------------------
// SIMD scans match scalar scans
// ---------------------------------------------------------------------------

constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                              CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                              CompareOp::kBetween};

class SimdScanTest
    : public ::testing::TestWithParam<std::tuple<int, CompareOp>> {};

TEST_P(SimdScanTest, VbpSimdMatchesScalar) {
  const auto [k, op] = GetParam();
  const std::size_t n = 5000;
  const auto codes = RandomCodes(n, k, 3 + k);
  const VbpColumn scalar_col = VbpColumn::Pack(codes, k, {.lanes = 1});
  const VbpColumn simd_col = VbpColumn::Pack(codes, k, {.lanes = 4});
  Random rng(k);
  for (int trial = 0; trial < 4; ++trial) {
    std::uint64_t c1 = rng.UniformInt(0, LowMask(k));
    std::uint64_t c2 = rng.UniformInt(0, LowMask(k));
    if (op == CompareOp::kBetween && c1 > c2) std::swap(c1, c2);
    const FilterBitVector expected = VbpScanner::Scan(scalar_col, op, c1, c2);
    const FilterBitVector actual = simd::ScanVbp(simd_col, op, c1, c2);
    ASSERT_TRUE(actual == expected)
        << "k=" << k << " op=" << CompareOpToString(op);
  }
}

TEST_P(SimdScanTest, HbpSimdMatchesScalar) {
  const auto [k, op] = GetParam();
  const std::size_t n = 5000;
  const auto codes = RandomCodes(n, k, 9 + k);
  const HbpColumn scalar_col = HbpColumn::Pack(codes, k, {.lanes = 1});
  const HbpColumn simd_col =
      HbpColumn::Pack(codes, k, {.tau = scalar_col.tau(), .lanes = 4});
  Random rng(50 + k);
  for (int trial = 0; trial < 4; ++trial) {
    std::uint64_t c1 = rng.UniformInt(0, LowMask(k));
    std::uint64_t c2 = rng.UniformInt(0, LowMask(k));
    if (op == CompareOp::kBetween && c1 > c2) std::swap(c1, c2);
    const FilterBitVector expected = HbpScanner::Scan(scalar_col, op, c1, c2);
    const FilterBitVector actual = simd::ScanHbp(simd_col, op, c1, c2);
    ASSERT_TRUE(actual == expected)
        << "k=" << k << " op=" << CompareOpToString(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsOps, SimdScanTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 12, 25, 33),
                       ::testing::ValuesIn(kOps)));

// ---------------------------------------------------------------------------
// SIMD aggregates match scalar aggregates
// ---------------------------------------------------------------------------

class SimdAggTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SimdAggTest, VbpSimdAggregates) {
  const auto [k, sel] = GetParam();
  const std::size_t n = 4000;
  const auto codes = RandomCodes(n, k, 11 * k);
  Random rng(77 + k);
  std::vector<bool> pass(n);
  for (auto&& p : pass) p = rng.Bernoulli(sel);
  const VbpColumn scalar_col = VbpColumn::Pack(codes, k, {.lanes = 1});
  const VbpColumn simd_col = VbpColumn::Pack(codes, k, {.lanes = 4});
  const FilterBitVector f = FilterBitVector::FromBools(pass, 64);

  EXPECT_TRUE(simd::SumVbp(simd_col, f) == vbp::Sum(scalar_col, f));
  EXPECT_EQ(simd::MinVbp(simd_col, f), vbp::Min(scalar_col, f));
  EXPECT_EQ(simd::MaxVbp(simd_col, f), vbp::Max(scalar_col, f));
  EXPECT_EQ(simd::MedianVbp(simd_col, f), vbp::Median(scalar_col, f));
  if (f.CountOnes() >= 5) {
    EXPECT_EQ(simd::RankSelectVbp(simd_col, f, 5),
              vbp::RankSelect(scalar_col, f, 5));
  }
}

TEST_P(SimdAggTest, HbpSimdAggregates) {
  const auto [k, sel] = GetParam();
  const std::size_t n = 4000;
  const auto codes = RandomCodes(n, k, 13 * k);
  const HbpColumn scalar_col = HbpColumn::Pack(codes, k, {.lanes = 1});
  const HbpColumn simd_col =
      HbpColumn::Pack(codes, k, {.tau = scalar_col.tau(), .lanes = 4});
  Random rng(99 + k);
  std::vector<bool> pass(n);
  for (auto&& p : pass) p = rng.Bernoulli(sel);
  const FilterBitVector f =
      FilterBitVector::FromBools(pass, scalar_col.values_per_segment());

  EXPECT_TRUE(simd::SumHbp(simd_col, f) == hbp::Sum(scalar_col, f));
  EXPECT_EQ(simd::MinHbp(simd_col, f), hbp::Min(scalar_col, f));
  EXPECT_EQ(simd::MaxHbp(simd_col, f), hbp::Max(scalar_col, f));
  EXPECT_EQ(simd::MedianHbp(simd_col, f), hbp::Median(scalar_col, f));
  if (f.CountOnes() >= 9) {
    EXPECT_EQ(simd::RankSelectHbp(simd_col, f, 9),
              hbp::RankSelect(scalar_col, f, 9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsSelectivities, SimdAggTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 12, 25, 33, 50),
                       ::testing::Values(0.0, 0.05, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// MT + SIMD drivers
// ---------------------------------------------------------------------------

class SimdMtTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdMtTest, VbpMtSimd) {
  TestSession session(GetParam());
  sched::QuerySession& ex = session.ex();
  const int k = 19;
  // More than one quad morsel (1024 quads), so slots that receive no
  // morsel must not leak their identity state into MIN/MAX.
  const auto codes = RandomCodes(300000, k, 123);
  const VbpColumn scalar_col = VbpColumn::Pack(codes, k, {.lanes = 1});
  const VbpColumn simd_col = VbpColumn::Pack(codes, k, {.lanes = 4});
  const FilterBitVector f =
      simd::ScanVbp(ex, simd_col, CompareOp::kLt, 300000);
  const FilterBitVector f_ref =
      VbpScanner::Scan(scalar_col, CompareOp::kLt, 300000);
  ASSERT_TRUE(f == f_ref);
  EXPECT_TRUE(simd::SumVbp(ex, simd_col, f) == vbp::Sum(scalar_col, f));
  EXPECT_EQ(simd::MinVbp(ex, simd_col, f), vbp::Min(scalar_col, f));
  EXPECT_EQ(simd::MaxVbp(ex, simd_col, f), vbp::Max(scalar_col, f));
  EXPECT_EQ(simd::MedianVbp(ex, simd_col, f), vbp::Median(scalar_col, f));
}

TEST_P(SimdMtTest, HbpMtSimd) {
  TestSession session(GetParam());
  sched::QuerySession& ex = session.ex();
  const int k = 15;
  const auto codes = RandomCodes(300000, k, 321);
  const HbpColumn scalar_col = HbpColumn::Pack(codes, k, {.lanes = 1});
  const HbpColumn simd_col =
      HbpColumn::Pack(codes, k, {.tau = scalar_col.tau(), .lanes = 4});
  const FilterBitVector f =
      simd::ScanHbp(ex, simd_col, CompareOp::kGe, 9000);
  const FilterBitVector f_ref =
      HbpScanner::Scan(scalar_col, CompareOp::kGe, 9000);
  ASSERT_TRUE(f == f_ref);
  EXPECT_TRUE(simd::SumHbp(ex, simd_col, f) == hbp::Sum(scalar_col, f));
  EXPECT_EQ(simd::MinHbp(ex, simd_col, f), hbp::Min(scalar_col, f));
  EXPECT_EQ(simd::MaxHbp(ex, simd_col, f), hbp::Max(scalar_col, f));
  EXPECT_EQ(simd::MedianHbp(ex, simd_col, f), hbp::Median(scalar_col, f));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SimdMtTest, ::testing::Values(1, 2, 4));

TEST(SimdTest, AggregateDispatchers) {
  const auto codes = RandomCodes(2000, 10, 555);
  const VbpColumn vcol = VbpColumn::Pack(codes, 10, {.lanes = 4});
  const HbpColumn hcol = HbpColumn::Pack(codes, 10, {.lanes = 4});
  FilterBitVector vf(codes.size(), 64);
  vf.SetAll();
  FilterBitVector hf(codes.size(), hcol.values_per_segment());
  hf.SetAll();
  const auto vr = simd::AggregateVbp(vcol, vf, AggKind::kAvg);
  const auto hr = simd::AggregateHbp(hcol, hf, AggKind::kAvg);
  EXPECT_EQ(vr.count, codes.size());
  EXPECT_NEAR(vr.Avg(), hr.Avg(), 1e-9);
}

TEST(SimdTest, EmptyAndTinyColumns) {
  const std::vector<std::uint64_t> codes = {7, 1, 3};
  const VbpColumn vcol = VbpColumn::Pack(codes, 3, {.lanes = 4});
  const HbpColumn hcol = HbpColumn::Pack(codes, 3, {.lanes = 4});
  FilterBitVector vf(3, 64);
  vf.SetAll();
  FilterBitVector hf(3, hcol.values_per_segment());
  hf.SetAll();
  EXPECT_TRUE(simd::SumVbp(vcol, vf) == UInt128{11});
  EXPECT_TRUE(simd::SumHbp(hcol, hf) == UInt128{11});
  EXPECT_EQ(simd::MinVbp(vcol, vf), std::optional<std::uint64_t>(1));
  EXPECT_EQ(simd::MedianHbp(hcol, hf), std::optional<std::uint64_t>(3));
}

}  // namespace
}  // namespace icp
