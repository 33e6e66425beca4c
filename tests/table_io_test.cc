#include "io/table_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/obs.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace icp {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Table MakeRichTable(std::size_t n) {
  Random rng(77);
  std::vector<std::int64_t> a(n), b(n), c(n), d(n);
  std::vector<bool> d_valid(n);
  const std::int64_t dict_values[3] = {-5, 100, 7777};
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::int64_t>(rng.UniformInt(0, 1000));
    b[i] = static_cast<std::int64_t>(rng.UniformInt(0, 123456)) - 60000;
    c[i] = dict_values[rng.UniformInt(0, 2)];
    d[i] = static_cast<std::int64_t>(rng.UniformInt(0, 99));
    d_valid[i] = !rng.Bernoulli(0.2);
  }
  Table table;
  ICP_CHECK(table.AddColumn("a", a, {.layout = Layout::kVbp}).ok());
  ICP_CHECK(
      table.AddColumn("b", b, {.layout = Layout::kHbp, .tau = 5}).ok());
  ICP_CHECK(table
                .AddColumn("c", c,
                           {.layout = Layout::kHbp, .dictionary = true})
                .ok());
  ICP_CHECK(table
                .AddNullableColumn("d", d, d_valid,
                                   {.layout = Layout::kVbp, .bit_width = 10})
                .ok());
  return table;
}

TEST(TableIoTest, RoundTripPreservesEverything) {
  const Table original = MakeRichTable(5000);
  const std::string path = TempPath("roundtrip.icptbl");
  ASSERT_TRUE(io::WriteTable(original, path).ok());

  auto loaded_or = io::ReadTable(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Table& loaded = *loaded_or;

  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  EXPECT_EQ(loaded.column_names(), original.column_names());
  for (const auto& name : original.column_names()) {
    const Table::Column& o = **original.GetColumn(name);
    const Table::Column& l = **loaded.GetColumn(name);
    ASSERT_EQ(l.bit_width(), o.bit_width()) << name;
    ASSERT_EQ(l.spec().layout, o.spec().layout) << name;
    ASSERT_EQ(l.spec().tau, o.spec().tau) << name;
    ASSERT_EQ(l.nullable(), o.nullable()) << name;
    ASSERT_EQ(l.codes(), o.codes()) << name;
    if (o.nullable()) {
      ASSERT_TRUE(l.validity() == o.validity()) << name;
    }
    ASSERT_EQ(l.encoder().min_value(), o.encoder().min_value()) << name;
    ASSERT_EQ(l.encoder().max_value(), o.encoder().max_value()) << name;
    ASSERT_EQ(l.encoder().is_dictionary(), o.encoder().is_dictionary());
  }
}

// Every word-group region of a column's packing, flattened.
std::vector<Word> PackedWords(const Table::Column& column) {
  std::vector<Word> words;
  auto append = [&words](const auto& packed) {
    for (int g = 0; g < packed.num_groups(); ++g) {
      words.insert(words.end(), packed.GroupData(g),
                   packed.GroupData(g) + packed.GroupWordCount(g));
    }
  };
  switch (column.spec().layout) {
    case Layout::kVbp:
      append(column.vbp());
      break;
    case Layout::kHbp:
      append(column.hbp());
      break;
    case Layout::kNaive:
    case Layout::kPadded:
      break;
  }
  return words;
}

// A read-back table holds the same one packing AddColumn built: the
// lanes == 4 form, word for word.
TEST(TableIoTest, ReadTablePacksLikeAddColumn) {
  const Table original = MakeRichTable(5000);
  const std::string path = TempPath("packing.icptbl");
  ASSERT_TRUE(io::WriteTable(original, path).ok());
  auto loaded_or = io::ReadTable(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  for (const auto& name : original.column_names()) {
    const Table::Column& o = **original.GetColumn(name);
    const Table::Column& l = **loaded_or->GetColumn(name);
    const int lanes = o.spec().layout == Layout::kVbp ? o.vbp().lanes()
                                                      : o.hbp().lanes();
    EXPECT_EQ(lanes, 4) << name;
    EXPECT_EQ(l.MemoryBytes(), o.MemoryBytes()) << name;
    const std::vector<Word> words = PackedWords(o);
    EXPECT_FALSE(words.empty()) << name;
    EXPECT_EQ(PackedWords(l), words) << name;
  }
}

TEST(TableIoTest, QueriesAgreeAfterReload) {
  const Table original = MakeRichTable(3000);
  const std::string path = TempPath("query.icptbl");
  ASSERT_TRUE(io::WriteTable(original, path).ok());
  auto loaded = io::ReadTable(path);
  ASSERT_TRUE(loaded.ok());

  Engine engine;
  Query q;
  q.agg = AggKind::kMedian;
  q.agg_column = "b";
  q.filter = FilterExpr::And(
      {FilterExpr::Compare("a", CompareOp::kLt, 700),
       FilterExpr::IsNotNull("d")});
  auto r1 = engine.Execute(original, q);
  auto r2 = engine.Execute(*loaded, q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->count, r2->count);
  EXPECT_EQ(r1->decoded_value, r2->decoded_value);

  q.agg = AggKind::kSum;
  q.agg_column = "d";
  r1 = engine.Execute(original, q);
  r2 = engine.Execute(*loaded, q);
  EXPECT_DOUBLE_EQ(r1->value, r2->value);
}

TEST(TableIoTest, MissingFile) {
  auto result = io::ReadTable(TempPath("does_not_exist.icptbl"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(TableIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.icptbl");
  std::ofstream(path, std::ios::binary) << "NOTATABLEFILE.....";
  auto result = io::ReadTable(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableIoTest, TruncationDetected) {
  const Table table = MakeRichTable(500);
  const std::string path = TempPath("truncated.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  // Chop off the tail (checksum + part of the last column).
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << contents.substr(0, contents.size() - 64);
  auto result = io::ReadTable(path);
  EXPECT_FALSE(result.ok());
}

TEST(TableIoTest, CorruptionDetectedByChecksum) {
  const Table table = MakeRichTable(500);
  const std::string path = TempPath("corrupt.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one bit somewhere in the code stream.
  contents[contents.size() / 2] ^= 0x10;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
  auto result = io::ReadTable(path);
  EXPECT_FALSE(result.ok());
}

TEST(TableIoTest, PaddedAndNaiveLayoutsRoundTrip) {
  Random rng(21);
  std::vector<std::int64_t> v(800);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 5000));
  Table table;
  ASSERT_TRUE(table.AddColumn("p", v, {.layout = Layout::kPadded}).ok());
  ASSERT_TRUE(table.AddColumn("n", v, {.layout = Layout::kNaive}).ok());
  const std::string path = TempPath("layouts.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  auto loaded = io::ReadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded->GetColumn("p"))->spec().layout, Layout::kPadded);
  EXPECT_EQ((*loaded->GetColumn("n"))->spec().layout, Layout::kNaive);
  EXPECT_EQ((*loaded->GetColumn("p"))->codes(),
            (*table.GetColumn("p"))->codes());
}

TEST(TableIoTest, SingleRowTable) {
  Table table;
  ASSERT_TRUE(table.AddColumn("x", {42}, {}).ok());
  const std::string path = TempPath("tiny.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  auto loaded = io::ReadTable(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 1u);
  EXPECT_EQ((*loaded->GetColumn("x"))->encoder().Decode(
                (*loaded->GetColumn("x"))->codes()[0]),
            42);
}

TEST(TableIoTest, SuccessfulWriteLeavesNoStagingFile) {
  const Table table = MakeRichTable(200);
  const std::string path = TempPath("atomic.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  const std::string staging = path + ".tmp." + std::to_string(::getpid());
  EXPECT_FALSE(std::ifstream(staging).good())
      << "temp file must be renamed away, not left behind";
  EXPECT_TRUE(io::ReadTable(path).ok());
}

TEST(TableIoTest, RewriteReplacesFileAtomically) {
  const std::string path = TempPath("rewrite.icptbl");
  ASSERT_TRUE(io::WriteTable(MakeRichTable(300), path).ok());
  // Overwriting an existing table goes through the same temp+rename path.
  const Table v2 = MakeRichTable(700);
  ASSERT_TRUE(io::WriteTable(v2, path).ok());
  auto loaded = io::ReadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 700u);
}

// The torture test: flip one bit at every byte offset of a valid file. Every
// single flip must be rejected with a Status — a crash, an ICP_CHECK abort,
// a hang, or an absurd allocation at any offset fails the test harness
// itself. (The varying bit index exercises high bits of count fields, sign
// bits of tau/lo/hi, and the checksum trailer alike.)
TEST(TableIoTest, EverySingleBitFlipIsRejected) {
  const Table table = MakeRichTable(64);
  const std::string path = TempPath("torture.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(good.size(), 100u);

  const std::string mutant_path = TempPath("torture_mutant.icptbl");
  for (std::size_t offset = 0; offset < good.size(); ++offset) {
    std::string mutant = good;
    mutant[offset] ^= static_cast<char>(1u << (offset % 8));
    std::ofstream(mutant_path, std::ios::binary | std::ios::trunc) << mutant;
    auto result = io::ReadTable(mutant_path);
    EXPECT_FALSE(result.ok())
        << "bit flip at offset " << offset << " went undetected";
  }
}

TEST(TableIoTest, TruncationAtEveryLengthIsRejected) {
  const Table table = MakeRichTable(64);
  const std::string path = TempPath("trunc_sweep.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string mutant_path = TempPath("trunc_mutant.icptbl");
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::ofstream(mutant_path, std::ios::binary | std::ios::trunc)
        << good.substr(0, len);
    auto result = io::ReadTable(mutant_path);
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " bytes";
  }
}

TEST(TableIoTest, HugeCountFieldsAreRejectedWithoutAllocating) {
  // Hand-craft a header claiming 2^60 rows: the reader must bound the claim
  // against the actual file size instead of allocating petabytes.
  const std::string path = TempPath("huge_rows.icptbl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "ICPTBL01";
    const std::uint64_t rows = 1ULL << 60;
    const std::uint32_t cols = 1;
    out.write(reinterpret_cast<const char*>(&rows), 8);
    out.write(reinterpret_cast<const char*>(&cols), 4);
    out << "padpadpad";
  }
  auto result = io::ReadTable(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableIoTest, SweepRemovesOrphansAndKeepsCompletedTables) {
  // A crash between staging and rename leaves "<name>.tmp.<pid>" files
  // behind; the startup sweep must delete exactly those.
  const std::string dir = TempPath("sweep_dir");
  ::mkdir(dir.c_str(), 0755);

  const Table table = MakeRichTable(2000);
  const std::string survivor = dir + "/survivor.icptbl";
  ASSERT_TRUE(io::WriteTable(table, survivor).ok());

  auto plant = [&](const std::string& name) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << "partial garbage from a crashed writer";
  };
  plant("crashed.icptbl.tmp.12345");
  plant("other.icptbl.tmp.999");
  // Not staging files: wrong suffix shape, or no base name.
  plant("keep.icptbl.tmp.12x45");
  plant("keep2.tmp.notdigits");
  plant(".tmp.777");

  int removed = -1;
  ASSERT_TRUE(io::SweepOrphanedStagingFiles(dir, &removed).ok());
  EXPECT_EQ(removed, 2);
  EXPECT_FALSE(std::ifstream(dir + "/crashed.icptbl.tmp.12345").good());
  EXPECT_FALSE(std::ifstream(dir + "/other.icptbl.tmp.999").good());
  EXPECT_TRUE(std::ifstream(dir + "/keep.icptbl.tmp.12x45").good());
  EXPECT_TRUE(std::ifstream(dir + "/keep2.tmp.notdigits").good());
  EXPECT_TRUE(std::ifstream(dir + "/.tmp.777").good());

  // The completed table is untouched and still loads with a clean checksum.
  auto loaded = io::ReadTable(survivor);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), table.num_rows());

  // Idempotent: a second sweep finds nothing.
  ASSERT_TRUE(io::SweepOrphanedStagingFiles(dir, &removed).ok());
  EXPECT_EQ(removed, 0);

  EXPECT_FALSE(io::SweepOrphanedStagingFiles(dir + "/nope").ok());
}

class TableIoRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::Armed()) GTEST_SKIP() << "built without ICP_FAILPOINTS";
    fail::DisableAll();
  }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(TableIoRetryTest, TransientReadErrorIsRetriedAndSucceeds) {
  const Table original = MakeRichTable(2000);
  const std::string path = TempPath("retry.icptbl");
  ASSERT_TRUE(io::WriteTable(original, path).ok());

#if ICP_OBS
  const std::uint64_t retries_before = obs::IoRetries().Load();
#endif
  fail::EnableOneShot("table_io/read_transient");
  auto loaded = io::ReadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), original.num_rows());
  EXPECT_EQ(fail::TriggerCount("table_io/read_transient"), 1u);
#if ICP_OBS
  EXPECT_EQ(obs::IoRetries().Load(), retries_before + 1);
#endif
}

TEST_F(TableIoRetryTest, PersistentTransientErrorFailsAfterBoundedRetries) {
  const Table original = MakeRichTable(2000);
  const std::string path = TempPath("retry_exhaust.icptbl");
  ASSERT_TRUE(io::WriteTable(original, path).ok());

  fail::EnableAlways("table_io/read_transient");
  auto loaded = io::ReadTable(path);
  ASSERT_FALSE(loaded.ok());
  // kIoMaxAttempts total tries for the first read: the failpoint is
  // evaluated once per attempt, then the read fails hard — bounded, not
  // an infinite retry loop.
  EXPECT_EQ(fail::EvalCount("table_io/read_transient"),
            static_cast<std::uint64_t>(kIoMaxAttempts));
}

TEST(TableIoTest, PackedFileIsCompact) {
  // 10k rows of 7-bit values must take ~10k * 7 / 8 bytes, not 8 bytes/row.
  Random rng(5);
  std::vector<std::int64_t> v(10000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.UniformInt(0, 100));
  Table table;
  ASSERT_TRUE(table.AddColumn("v", v, {}).ok());
  const std::string path = TempPath("compact.icptbl");
  ASSERT_TRUE(io::WriteTable(table, path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  EXPECT_LT(size, 10000u * 2);  // ~0.875 B/row payload + header
}

}  // namespace
}  // namespace icp
