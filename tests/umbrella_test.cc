// Compile-time check that the umbrella header is self-contained, plus a
// smoke test exercising one symbol from each layer through it.

#include "icp.h"

#include <gtest/gtest.h>

#include "test_session.h"

namespace icp {
namespace {

TEST(UmbrellaTest, OneSymbolPerLayer) {
  // util
  EXPECT_EQ(Popcount(0xFF), 8);
  // storage
  const std::vector<std::uint64_t> codes = {3, 1, 4, 1, 5};
  const VbpColumn column = VbpColumn::Pack(codes, 3);
  // scan
  const FilterBitVector f = VbpScanner::Scan(column, CompareOp::kGe, 3);
  EXPECT_EQ(f.CountOnes(), 3u);
  // aggregation
  EXPECT_TRUE(vbp::Sum(column, f) == UInt128{12});
  // parallel, on a scheduler session
  TestSession session(2);
  EXPECT_EQ(par::Count(session.ex(), f), 3u);
  // engine
  Table table;
  ASSERT_TRUE(table.AddColumn("x", {3, 1, 4, 1, 5}, {}).ok());
  Engine engine;
  Query q{.agg = AggKind::kMax, .agg_column = "x", .filter = nullptr};
  EXPECT_EQ(engine.Execute(table, q)->decoded_value,
            std::optional<std::int64_t>(5));
}

}  // namespace
}  // namespace icp
