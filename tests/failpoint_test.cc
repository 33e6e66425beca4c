// Fault-injection tests: every planted failpoint (see the catalog in
// util/failpoint.h) has a test here observing a clean non-OK Status — no
// crash, no partial file, pool still usable. These tests need a build with
// -DICP_FAILPOINTS=ON; on a release build they GTEST_SKIP via fail::Armed().

#include "util/failpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/query_parser.h"
#include "engine/table.h"
#include "io/csv_loader.h"
#include "io/table_io.h"
#include "util/random.h"

namespace icp {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::Armed()) {
      GTEST_SKIP() << "built without ICP_FAILPOINTS";
    }
    fail::DisableAll();
  }
  void TearDown() override { fail::DisableAll(); }
};

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// The temp file WriteTable stages into (same naming scheme, same process).
std::string StagingPath(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

Table MakeTable(std::size_t n, std::uint64_t salt = 0) {
  Random rng(17 + salt);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 4000));
  Table table;
  ICP_CHECK(table.AddColumn("v", v, {.layout = Layout::kVbp}).ok());
  return table;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(FailpointTest, ControlApiCountsEvaluationsAndTriggers) {
  const Table table = MakeTable(100);
  const std::string path = TempPath("fp_counts.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  // Each WriteTable evaluates "table_io/write" once per Raw call; disarmed
  // points are still counted.
  EXPECT_GT(fail::EvalCount("table_io/write"), 0u);
  EXPECT_EQ(fail::TriggerCount("table_io/write"), 0u);

  fail::EnableOneShot("table_io/write");
  EXPECT_FALSE(io::WriteTable(table, path).ok());
  EXPECT_EQ(fail::TriggerCount("table_io/write"), 1u);
  // One-shot: the next write goes through.
  EXPECT_TRUE(io::WriteTable(table, path).ok());
  EXPECT_EQ(fail::TriggerCount("table_io/write"), 1u);

  const auto known = fail::KnownFailpoints();
  EXPECT_NE(std::find(known.begin(), known.end(), "table_io/write"),
            known.end());
}

TEST_F(FailpointTest, WriteFailureLeavesNoFile) {
  const Table table = MakeTable(500);
  const std::string path = TempPath("fp_write.icptbl");
  std::remove(path.c_str());

  fail::EnableAlways("table_io/write");
  const Status status = io::WriteTable(table, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_FALSE(FileExists(path)) << "failed write must not create the target";
  EXPECT_FALSE(FileExists(StagingPath(path))) << "temp file must be removed";
}

TEST_F(FailpointTest, WriteFailureMidStreamKeepsPreviousVersion) {
  const Table v1 = MakeTable(500, /*salt=*/1);
  const std::string path = TempPath("fp_write_prev.icptbl");
  ASSERT_TRUE(io::WriteTable(v1, path).ok());
  const std::string before = Slurp(path);

  // Fail the 5th write of the replacement table: the stream dies mid-column.
  fail::EnableEveryNth("table_io/write", 5);
  EXPECT_FALSE(io::WriteTable(MakeTable(900, /*salt=*/2), path).ok());
  fail::DisableAll();

  EXPECT_EQ(Slurp(path), before) << "previous version must be untouched";
  EXPECT_FALSE(FileExists(StagingPath(path)));
  auto reloaded = io::ReadTable(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_rows(), v1.num_rows());
}

TEST_F(FailpointTest, FsyncFailureLeavesPreviousVersion) {
  const Table v1 = MakeTable(300, /*salt=*/3);
  const std::string path = TempPath("fp_fsync.icptbl");
  ASSERT_TRUE(io::WriteTable(v1, path).ok());
  const std::string before = Slurp(path);

  fail::EnableAlways("table_io/fsync");
  const Status status = io::WriteTable(MakeTable(600, /*salt=*/4), path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  fail::DisableAll();

  EXPECT_EQ(Slurp(path), before);
  EXPECT_FALSE(FileExists(StagingPath(path)));
}

TEST_F(FailpointTest, RenameFailureLeavesPreviousVersion) {
  const Table v1 = MakeTable(300, /*salt=*/5);
  const std::string path = TempPath("fp_rename.icptbl");
  ASSERT_TRUE(io::WriteTable(v1, path).ok());
  const std::string before = Slurp(path);

  fail::EnableAlways("table_io/rename");
  EXPECT_FALSE(io::WriteTable(MakeTable(600, /*salt=*/6), path).ok());
  fail::DisableAll();

  EXPECT_EQ(Slurp(path), before);
  EXPECT_FALSE(FileExists(StagingPath(path)));
}

TEST_F(FailpointTest, ReadFailureReturnsStatusNotCrash) {
  const Table table = MakeTable(800);
  const std::string path = TempPath("fp_read.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());

  // Fail a different read each round: header, column header, code stream...
  for (std::uint64_t nth = 1; nth <= 12; ++nth) {
    fail::DisableAll();
    fail::EnableEveryNth("table_io/read", nth);
    auto result = io::ReadTable(path);
    EXPECT_FALSE(result.ok()) << "nth=" << nth;
  }
  fail::DisableAll();
  EXPECT_TRUE(io::ReadTable(path).ok());
}

TEST_F(FailpointTest, AllocationFailureSurfacesAsStatus) {
  fail::EnableAlways("aligned_buffer/alloc");
  Random rng(9);
  std::vector<std::int64_t> v(2000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 1000));
  Table table;
  const Status status = table.AddColumn("v", v, {.layout = Layout::kVbp});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  fail::DisableAll();
  EXPECT_TRUE(table.AddColumn("v", v, {.layout = Layout::kVbp}).ok());
}

// The standalone phases run on the engine's private scheduler too, so a
// dropped morsel surfaces from EvaluateFilter itself, and the worker pool
// keeps serving the next call.
TEST_F(FailpointTest, DroppedPoolTaskIsReportedAndPoolSurvives) {
  Random rng(29);
  std::vector<std::int64_t> v(200000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 100000));
  Table table;
  ASSERT_TRUE(table.AddColumn("v", v, {.layout = Layout::kHbp}).ok());
  const FilterExprPtr filter = FilterExpr::Compare("v", CompareOp::kGe, 500);

  Engine engine(ExecOptions{.threads = 4});
  fail::EnableOneShot("sched/dequeue");
  auto dropped = engine.EvaluateFilter(table, filter, "v");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kInternal);

  fail::DisableAll();
  auto again = engine.EvaluateFilter(table, filter, "v");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto reference = Engine().EvaluateFilter(table, filter, "v");
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(*again == *reference);
}

TEST_F(FailpointTest, EngineTurnsDroppedTaskIntoStatus) {
  Random rng(31);
  std::vector<std::int64_t> v(200000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 100000));
  Table table;
  ASSERT_TRUE(table.AddColumn("v", v, {.layout = Layout::kVbp}).ok());

  Engine engine(ExecOptions{.threads = 4});
  Query q;
  q.agg = AggKind::kSum;
  q.agg_column = "v";
  q.filter = FilterExpr::Compare("v", CompareOp::kLt, 90000);

  fail::EnableOneShot("sched/dequeue");
  auto result = engine.Execute(table, q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  // The same engine answers correctly once the failpoint is disarmed.
  fail::DisableAll();
  auto again = engine.Execute(table, q);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Engine st(ExecOptions{.threads = 1});
  auto reference = st.Execute(table, q);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(again->count, reference->count);
  EXPECT_EQ(again->code_sum, reference->code_sum);
}

TEST_F(FailpointTest, CsvOpenFailureReturnsNotFound) {
  const std::string path = TempPath("fp_csv_open.csv");
  {
    std::ofstream out(path);
    out << "v\n1\n2\n3\n";
  }
  const std::vector<io::CsvColumnSpec> specs = {{.name = "v"}};

  fail::EnableAlways("csv_loader/open");
  const auto result = io::LoadCsv(path, specs);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  fail::DisableAll();

  auto again = io::LoadCsv(path, specs);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_rows(), 3u);
}

TEST_F(FailpointTest, CsvReadFailureMidFileReturnsStatusNotPartialTable) {
  const std::string path = TempPath("fp_csv_read.csv");
  {
    std::ofstream out(path);
    out << "v\n";
    for (int i = 0; i < 100; ++i) out << i << "\n";
  }
  const std::vector<io::CsvColumnSpec> specs = {{.name = "v"}};

  // Fail on a data line mid-file: no partial table may escape.
  fail::EnableEveryNth("csv_loader/read", 50);
  const auto result = io::LoadCsv(path, specs);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  fail::DisableAll();

  auto again = io::LoadCsv(path, specs);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_rows(), 100u);
}

TEST_F(FailpointTest, LexerFailureSurfacesAsStatus) {
  fail::EnableAlways("query_parser/lex");
  const auto q = ParseQuery("SELECT SUM(v) WHERE v > 10");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInternal);
  const auto p = ParsePredicate("v > 10");
  EXPECT_FALSE(p.ok());
  fail::DisableAll();
  EXPECT_TRUE(ParseQuery("SELECT SUM(v) WHERE v > 10").ok());
}

TEST_F(FailpointTest, ParserFailureSurfacesAsStatusAndLeaksNothing) {
  // A deep predicate allocates a partially built expression tree; under
  // ASan this test also proves the failure path releases it.
  const std::string sql =
      "SELECT SUM(v) WHERE (a > 1 AND b < 2) OR NOT (c = 3 AND d != 4)";
  fail::EnableAlways("query_parser/parse");
  const auto q = ParseQuery(sql);
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInternal);
  fail::EnableAlways("query_parser/parse_predicate");
  const auto p = ParsePredicate("(a > 1 AND b < 2) OR c = 3");
  EXPECT_FALSE(p.ok());
  fail::DisableAll();
  EXPECT_TRUE(ParseQuery(sql).ok());
}

TEST(FailpointConfigTest, ReleaseBuildsAreInert) {
  if (fail::Armed()) {
    GTEST_SKIP() << "this test checks the ICP_FAILPOINTS=OFF configuration";
  }
  // Arming is a no-op: nothing fires, nothing is counted.
  fail::EnableAlways("table_io/write");
  const Table table = [] {
    Table t;
    ICP_CHECK(t.AddColumn("v", {1, 2, 3}, {}).ok());
    return t;
  }();
  const std::string path =
      std::string(::testing::TempDir()) + "/fp_release.icptbl";
  EXPECT_TRUE(io::WriteTable(table, path).ok());
  EXPECT_EQ(fail::TriggerCount("table_io/write"), 0u);
  fail::DisableAll();
}

}  // namespace
}  // namespace icp
