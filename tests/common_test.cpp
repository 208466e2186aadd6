#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "common/check.hpp"
#include "common/fsck.hpp"
#include "common/journal.hpp"
#include "common/lease.hpp"
#include "common/parse_number.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace tacos {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    TACOS_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(TACOS_CHECK(true, "never shown"));
  EXPECT_NO_THROW(TACOS_ASSERT(2 + 2 == 4, "math works"));
}

TEST(Units, LiteralsConvert) {
  using namespace literals;
  EXPECT_DOUBLE_EQ(150_um, 0.150);
  EXPECT_DOUBLE_EQ(6.9_mm, 6.9);
  EXPECT_DOUBLE_EQ(um_to_mm(20.0), 0.020);
}

TEST(ParseNumber, AcceptsOnlyWholeFiniteInRangeNumbers) {
  EXPECT_EQ(parse_number<long>("42"), 42);
  EXPECT_EQ(parse_number<long>("-5"), -5);
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
  EXPECT_EQ(parse_number<double>("-5"), -5.0);
  // Flag values that std::stod/std::atol abort on or silently truncate.
  for (const char* bad : {"", "abc", "x", "5x", "4 ", " 4", "1.5.2", "--1"}) {
    EXPECT_FALSE(parse_number<double>(bad)) << "accepted: '" << bad << "'";
    EXPECT_FALSE(parse_number<long>(bad)) << "accepted: '" << bad << "'";
  }
  EXPECT_FALSE(parse_number<long>("2.5"));
  EXPECT_FALSE(parse_number<long>("99999999999999999999"));  // out of range
  EXPECT_FALSE(parse_number<int>("4294967297"));
  for (const char* bad : {"1e999", "inf", "nan", "-inf"})
    EXPECT_FALSE(parse_number<double>(bad)) << "accepted: '" << bad << "'";
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "2"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvIsMachineReadable) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4\n");
}

TEST(Table, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(TextTable({}), Error);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng r(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, UniformRealStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 200; ++i) {
    const double v = r.uniform_real(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

// ---------------------------------------------------------------------------
// fsck — offline validation/repair of a run directory's durable files.

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string journal_lines(int n) {
  std::string text;
  for (int i = 0; i < n; ++i)
    text += format_journal_line("task" + std::to_string(i),
                                "payload " + std::to_string(i)) +
            "\n";
  return text;
}

std::string lease_lines(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    LeaseRecord rec;
    rec.kind = LeaseRecord::Kind::kClaim;
    rec.task = "optimize:bench" + std::to_string(i);
    rec.worker = "w0.0";
    rec.epoch = static_cast<std::uint64_t>(i + 1);
    rec.deadline_ms = 1000;
    text += encode_lease_record(rec);
  }
  return text;
}

TEST(Fsck, CleanJournalReportsAllValid) {
  const std::string dir = fresh_dir("fsck_clean_journal");
  write_file(dir + "/journal.jsonl", journal_lines(3));
  const FsckFile f = fsck_journal_file(dir + "/journal.jsonl", false);
  EXPECT_EQ(f.valid, 3u);
  EXPECT_EQ(f.corrupt, 0u);
  EXPECT_FALSE(f.torn_tail);
  EXPECT_FALSE(f.event_log);
  EXPECT_FALSE(f.fixed);
}

TEST(Fsck, JournalTornTailIsStrictPrefix) {
  const std::string dir = fresh_dir("fsck_torn_journal");
  // A garbage line in the middle poisons everything at and after it:
  // journals have strict-prefix trust semantics.
  std::string text = journal_lines(2);
  text += "this is not a journal record\n";
  text += format_journal_line("task2", "payload 2") + "\n";
  write_file(dir + "/journal.jsonl", text);

  FsckFile f = fsck_journal_file(dir + "/journal.jsonl", false);
  EXPECT_EQ(f.valid, 2u);
  EXPECT_EQ(f.corrupt, 2u);  // the garbage line and the record after it
  EXPECT_TRUE(f.torn_tail);
  EXPECT_FALSE(f.fixed);
  // Non-destructive: the bytes are untouched.
  EXPECT_EQ(slurp(dir + "/journal.jsonl"), text);

  // Fix mode rewrites down to the valid prefix.
  f = fsck_journal_file(dir + "/journal.jsonl", true);
  EXPECT_TRUE(f.fixed);
  EXPECT_EQ(slurp(dir + "/journal.jsonl"), journal_lines(2));
  // And a second pass is clean.
  f = fsck_journal_file(dir + "/journal.jsonl", false);
  EXPECT_EQ(f.valid, 2u);
  EXPECT_EQ(f.corrupt, 0u);
}

TEST(Fsck, JournalTruncatedLastLine) {
  const std::string dir = fresh_dir("fsck_trunc_journal");
  std::string text = journal_lines(2);
  const std::string last = format_journal_line("task2", "payload 2");
  text += last.substr(0, last.size() / 2);  // no newline: torn mid-write
  write_file(dir + "/journal.jsonl", text);

  const FsckFile f = fsck_journal_file(dir + "/journal.jsonl", false);
  EXPECT_EQ(f.valid, 2u);
  EXPECT_EQ(f.corrupt, 1u);
  EXPECT_TRUE(f.torn_tail);
}

TEST(Fsck, LeaseLogSkipsCorruptMiddleLine) {
  const std::string dir = fresh_dir("fsck_lease");
  // Event-log semantics: a corrupt line anywhere is skippable; records
  // after it remain trusted.
  LeaseRecord rec;
  rec.kind = LeaseRecord::Kind::kClaim;
  rec.task = "optimize:a";
  rec.worker = "w0.0";
  rec.epoch = 1;
  const std::string good1 = encode_lease_record(rec);
  rec.task = "optimize:b";
  const std::string good2 = encode_lease_record(rec);
  const std::string text = good1 + "corrupt middle line\n" + good2;
  write_file(dir + "/leases.jsonl", text);

  FsckFile f = fsck_lease_file(dir + "/leases.jsonl", false);
  EXPECT_TRUE(f.event_log);
  EXPECT_EQ(f.valid, 2u);  // both sides of the damage stay valid
  EXPECT_EQ(f.corrupt, 1u);
  EXPECT_FALSE(f.torn_tail);

  f = fsck_lease_file(dir + "/leases.jsonl", true);
  EXPECT_TRUE(f.fixed);
  EXPECT_EQ(slurp(dir + "/leases.jsonl"), good1 + good2);
}

TEST(Fsck, LeaseLogToleratesWriterCaughtMidAppend) {
  const std::string dir = fresh_dir("fsck_lease_tail");
  LeaseRecord rec;
  rec.task = "optimize:a";
  rec.worker = "w0.0";
  const std::string good = encode_lease_record(rec);
  write_file(dir + "/leases.jsonl", good + good.substr(0, good.size() / 2));
  const FsckFile f = fsck_lease_file(dir + "/leases.jsonl", false);
  EXPECT_EQ(f.valid, 1u);
  EXPECT_EQ(f.corrupt, 1u);
  EXPECT_TRUE(f.torn_tail);
}

TEST(Fsck, RunDirCoversEveryRecognizedFile) {
  const std::string dir = fresh_dir("fsck_run_dir");
  write_file(dir + "/journal.jsonl", journal_lines(2));
  write_file(dir + "/shard-w0.jsonl", journal_lines(1));
  write_file(dir + "/shard-w1.jsonl",
             journal_lines(1) + "torn garbage\n");
  write_file(dir + "/leases.jsonl", lease_lines(2));
  // Neither is a durable file of a run dir: both are left untouched and
  // unreported, however journal-like their contents.
  write_file(dir + "/memo.jsonl", journal_lines(3));
  write_file(dir + "/unrelated.txt", "left untouched and unreported\n");

  const FsckReport report = fsck_run_dir(dir, false);
  EXPECT_EQ(report.files.size(), 4u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total_corrupt(), 1u);
  bool saw_shard1 = false;
  for (const FsckFile& f : report.files) {
    EXPECT_NE(f.name, "unrelated.txt");
    EXPECT_NE(f.name, "memo.jsonl");
    EXPECT_EQ(f.event_log, f.name == "leases.jsonl");
    if (f.name == "shard-w1.jsonl") {
      saw_shard1 = true;
      EXPECT_EQ(f.corrupt, 1u);
    } else {
      EXPECT_EQ(f.corrupt, 0u);
    }
  }
  EXPECT_TRUE(saw_shard1);

  // Fix mode repairs the damaged shard; the report is then clean.
  const FsckReport fixed = fsck_run_dir(dir, true);
  EXPECT_TRUE(fixed.clean());
  EXPECT_EQ(slurp(dir + "/shard-w1.jsonl"), journal_lines(1));
  EXPECT_TRUE(fsck_run_dir(dir, false).clean());
}

TEST(Fsck, MissingRunDirThrows) {
  EXPECT_THROW(fsck_run_dir(testing::TempDir() + "fsck_no_such_dir", false),
               Error);
}

TEST(Fsck, EmptyRunDirIsClean) {
  const std::string dir = fresh_dir("fsck_empty");
  const FsckReport report = fsck_run_dir(dir, false);
  EXPECT_TRUE(report.files.empty());
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace tacos
