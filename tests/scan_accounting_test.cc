// Per-tier scan-accounting invariants.
//
// The vector scanner kernels (avx2/avx512) early-stop at block granularity,
// so their words_examined / segments_early_stopped legitimately differ from
// the scalar cascade's per-segment accounting — the tiers are NOT required
// to agree with each other. What every tier must do is stay internally
// consistent:
//   * every segment is either processed or skipped by a zero prior word —
//     segments_processed always equals segments minus prior-skipped ones;
//   * early stops never exceed processed segments;
//   * words_examined stays within the per-segment layout bounds.
// And the two reporting channels fed from the same ScanStats — the
// process-wide scan.* obs counters and the per-query QueryStats — must
// agree exactly for a single query, per tier.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/table.h"
#include "layout/hbp_column.h"
#include "layout/vbp_column.h"
#include "obs/obs.h"
#include "obs/query_stats.h"
#include "scan/hbp_scanner.h"
#include "scan/vbp_scanner.h"
#include "simd/dispatch.h"
#include "util/random.h"

namespace icp {
namespace {

// Distinct tiers this host can genuinely run (same dedupe rule as the
// differential harness).
std::vector<kern::Tier> CoveredTiers() {
  std::vector<kern::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(kern::Tier::kAvx512); ++t) {
    const auto tier = static_cast<kern::Tier>(t);
    if (kern::EffectiveTier(tier) == tier) tiers.push_back(tier);
  }
  return tiers;
}

std::vector<std::uint64_t> RandomCodes(std::size_t n, int k,
                                       std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::uint64_t> codes(n);
  for (auto& c : codes) c = rng.UniformInt(0, LowMask(k));
  return codes;
}

std::uint64_t ZeroWords(const FilterBitVector& f) {
  std::uint64_t zeros = 0;
  for (std::size_t i = 0; i < f.num_segments(); ++i) {
    if (f.words()[i] == 0) ++zeros;
  }
  return zeros;
}

TEST(ScanAccountingTest, VbpScannerCountersInternallyConsistentPerTier) {
  const int k = 12;
  const std::size_t n = 10007;  // partial last segment on purpose
  const auto codes = RandomCodes(n, k, 301);
  const VbpColumn col = VbpColumn::Pack(codes, k);
  for (const kern::Tier tier : CoveredTiers()) {
    kern::ForceTier(tier);
    const std::string context =
        std::string("tier=") + kern::TierName(tier);
    const std::uint64_t segs = col.num_segments();

    // Plain scan: every segment is processed.
    ScanStats stats;
    const FilterBitVector prior =
        VbpScanner::Scan(col, CompareOp::kLt, LowMask(k) / 64, 0, &stats);
    EXPECT_EQ(stats.segments_processed, segs) << context;
    EXPECT_LE(stats.segments_early_stopped, stats.segments_processed)
        << context;
    EXPECT_GE(stats.words_examined, stats.segments_processed) << context;
    EXPECT_LE(stats.words_examined,
              stats.segments_processed * static_cast<std::uint64_t>(k))
        << context;

    // Conjunctive scan: segments the prior emptied are skipped, everything
    // else is processed — the two sides always add up to the segment
    // count, whatever the tier's early-stop granularity.
    const std::uint64_t skipped = ZeroWords(prior);
    ASSERT_GT(skipped, 0u) << context << " (selectivity too high for the "
                           << "prior to empty any segment)";
    ScanStats and_stats;
    const FilterBitVector out = VbpScanner::ScanAnd(
        col, CompareOp::kGt, LowMask(k) / 13, 0, prior, &and_stats);
    EXPECT_EQ(and_stats.segments_processed + skipped, segs) << context;
    EXPECT_LE(and_stats.segments_early_stopped,
              and_stats.segments_processed)
        << context;
    EXPECT_GE(and_stats.words_examined, and_stats.segments_processed)
        << context;
    EXPECT_LE(and_stats.words_examined,
              and_stats.segments_processed * static_cast<std::uint64_t>(k))
        << context;
    // The conjunction can only clear bits relative to the prior.
    for (std::size_t i = 0; i < out.num_segments(); ++i) {
      ASSERT_EQ(out.words()[i] & ~prior.words()[i], Word{0})
          << context << " seg=" << i;
    }
  }
  kern::ForceTier(std::nullopt);
}

TEST(ScanAccountingTest, HbpScannerCountersInternallyConsistentPerTier) {
  const int k = 9;  // s = 10 sub-segments per segment word
  const std::size_t n = 9973;
  const auto codes = RandomCodes(n, k, 302);
  const HbpColumn col = HbpColumn::Pack(codes, k);
  const std::uint64_t words_per_seg =
      static_cast<std::uint64_t>(col.num_groups()) *
      static_cast<std::uint64_t>(col.tau() + 1);
  for (const kern::Tier tier : CoveredTiers()) {
    kern::ForceTier(tier);
    const std::string context =
        std::string("tier=") + kern::TierName(tier);
    const std::uint64_t segs = col.num_segments();

    ScanStats stats;
    const FilterBitVector prior =
        HbpScanner::Scan(col, CompareOp::kLt, LowMask(k) / 64, 0, &stats);
    EXPECT_EQ(stats.segments_processed, segs) << context;
    EXPECT_LE(stats.segments_early_stopped, stats.segments_processed)
        << context;
    EXPECT_GE(stats.words_examined, stats.segments_processed) << context;
    EXPECT_LE(stats.words_examined,
              stats.segments_processed * words_per_seg)
        << context;

    const std::uint64_t skipped = ZeroWords(prior);
    ASSERT_GT(skipped, 0u) << context;
    ScanStats and_stats;
    const FilterBitVector out = HbpScanner::ScanAnd(
        col, CompareOp::kGt, LowMask(k) / 13, 0, prior, &and_stats);
    EXPECT_EQ(and_stats.segments_processed + skipped, segs) << context;
    EXPECT_LE(and_stats.segments_early_stopped,
              and_stats.segments_processed)
        << context;
    EXPECT_LE(and_stats.words_examined,
              and_stats.segments_processed * words_per_seg)
        << context;
    for (std::size_t i = 0; i < out.num_segments(); ++i) {
      ASSERT_EQ(out.words()[i] & ~prior.words()[i], Word{0})
          << context << " seg=" << i;
    }
  }
  kern::ForceTier(std::nullopt);
}

// The scan.* and agg.* obs counters and QueryStats are filled from the
// same counted work, so for a single query on an otherwise-idle process
// their deltas must agree exactly — per tier (even though the absolute
// numbers differ between tiers) and per thread count (the session drivers
// count per slot and merge once). The lanes == 4 scans count live
// segments only, so each leaf processes exactly the column's segments.
TEST(ScanAccountingTest, ObsCountersMatchQueryStatsPerQuery) {
  if (obs::SnapshotCounters().empty()) {
    GTEST_SKIP() << "observability layer compiled out (ICP_OBS=0)";
  }
  Random rng(303);
  const std::size_t n = 8000;
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.UniformInt(0, 4000)) - 2000;
  }
  Table table;
  ASSERT_TRUE(table.AddColumn("v_vbp", v, {.layout = Layout::kVbp}).ok());
  ASSERT_TRUE(table.AddColumn("v_hbp", v, {.layout = Layout::kHbp}).ok());

  for (const kern::Tier tier : CoveredTiers()) {
    kern::ForceTier(tier);
    for (const int threads : {1, 4}) {
      for (const char* column : {"v_vbp", "v_hbp"}) {
        const std::string context =
            std::string("tier=") + kern::TierName(tier) +
            " threads=" + std::to_string(threads) + " column=" + column;
        const Table::Column& col = **table.GetColumn(column);
        Query q;
        q.agg = AggKind::kMin;
        q.agg_column = column;
        std::vector<FilterExprPtr> leaves;
        leaves.push_back(
            FilterExpr::Compare(column, CompareOp::kGt, -1200, 0));
        leaves.push_back(
            FilterExpr::Compare(column, CompareOp::kLt, 900, 0));
        q.filter = FilterExpr::And(std::move(leaves));

        obs::QueryStats qs;
        Engine engine(ExecOptions{.threads = threads, .stats = &qs});
        obs::ResetAllCounters();
        auto result = engine.Execute(table, q);
        ASSERT_TRUE(result.ok()) << context;

        EXPECT_EQ(obs::CounterValue("scan.words_examined"),
                  qs.words_scanned)
            << context;
        EXPECT_EQ(obs::CounterValue("scan.segments_processed"),
                  qs.segments_scanned)
            << context;
        EXPECT_EQ(obs::CounterValue("scan.segments_early_stopped"),
                  qs.segments_early_stopped)
            << context;
        EXPECT_EQ(obs::CounterValue("agg.segments_folded"), qs.agg_folds)
            << context;
        EXPECT_EQ(obs::CounterValue("agg.segments_skipped"),
                  qs.agg_segments_skipped)
            << context;
        EXPECT_EQ(obs::CounterValue("agg.compare_early_stops"),
                  qs.agg_compare_early_stops)
            << context;
        EXPECT_EQ(obs::CounterValue("agg.blends_skipped"),
                  qs.agg_blends_skipped)
            << context;

        // Two leaves, each over every live segment of the column.
        const std::uint64_t live_segments =
            (n + col.values_per_segment() - 1) / col.values_per_segment();
        EXPECT_EQ(qs.segments_scanned, 2 * live_segments) << context;
        EXPECT_LE(qs.segments_early_stopped, qs.segments_scanned)
            << context;
        EXPECT_GE(qs.words_scanned, qs.segments_scanned) << context;
        EXPECT_GT(qs.agg_folds, 0u) << context;
        EXPECT_EQ(qs.lanes, 4) << context;
      }
    }
  }
  kern::ForceTier(std::nullopt);
}

}  // namespace
}  // namespace icp
