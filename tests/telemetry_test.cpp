/// Tests for the distributed-telemetry layer: the trace-context codecs
/// (string form and lease records — including byte-compat with
/// pre-trace-context artifacts), deterministic cross-process shard merging
/// (1/2/8 workers, stable pids, epoch alignment, torn shards) and
/// metrics-shard summation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "common/lease.hpp"
#include "obs/merge.hpp"
#include "obs/obs.hpp"

namespace tacos {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tacos_telemetry_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------- trace-context codec

TEST(TraceContextCodec, StringFormRoundTrips) {
  const obs::TraceContext ctx{0x00000000deadbeefull, 0x0123456789abcdefull};
  const std::string s = obs::trace_context_string(ctx);
  EXPECT_EQ(s, "00000000deadbeef:0123456789abcdef");
  obs::TraceContext back;
  ASSERT_TRUE(obs::parse_trace_context(s, &back));
  EXPECT_EQ(back, ctx);

  // The zero (untraced) context survives the round trip too: a worker
  // spawned by an untraced supervisor must not invent a trace.
  obs::TraceContext zero;
  ASSERT_TRUE(
      obs::parse_trace_context(obs::trace_context_string(zero), &back));
  EXPECT_EQ(back, zero);
  EXPECT_FALSE(back.valid());
}

TEST(TraceContextCodec, RejectsMalformedStrings) {
  obs::TraceContext out;
  for (const char* bad :
       {"", ":", "12", "12:", ":34", "xyzw:0000000000000012",
        "00000000deadbeef:0123456789abcdefg",
        "00000000deadbeef 0123456789abcdef",
        "00000000deadbeef:0123456789abcdef:1"}) {
    EXPECT_FALSE(obs::parse_trace_context(bad, &out)) << "accepted: " << bad;
  }
}

// ------------------------------------------------- lease-record carrier

TEST(LeaseTraceContext, RecordRoundTripsContext) {
  LeaseRecord rec;
  rec.kind = LeaseRecord::Kind::kClaim;
  rec.task = "optimize:canneal";
  rec.worker = "w0.1";
  rec.epoch = 7;
  rec.deadline_ms = 123456;
  rec.trace_id = 0xabcdefull;
  rec.span_id = 0x123456ull;
  // encode emits the newline-terminated on-disk line; decode takes the
  // line as the log replay splits it, without the terminator.
  std::string line = encode_lease_record(rec);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  LeaseRecord back;
  ASSERT_TRUE(decode_lease_record(line, &back));
  EXPECT_EQ(back.task, rec.task);
  EXPECT_EQ(back.worker, rec.worker);
  EXPECT_EQ(back.epoch, rec.epoch);
  EXPECT_EQ(back.deadline_ms, rec.deadline_ms);
  EXPECT_EQ(back.trace_id, rec.trace_id);
  EXPECT_EQ(back.span_id, rec.span_id);
}

TEST(LeaseTraceContext, UntracedRecordKeepsOldFormat) {
  LeaseRecord rec;
  rec.kind = LeaseRecord::Kind::kDone;
  rec.task = "optimize:dedup";
  rec.worker = "w1.2";
  rec.epoch = 3;
  rec.deadline_ms = 0;
  const std::string line = encode_lease_record(rec);
  // The untraced encoding is exactly the pre-trace-context four-token
  // payload — resumed runs append to old logs without changing format.
  const std::string oldline =
      format_journal_line("lease:optimize:dedup", "done w1.2 3 0");
  EXPECT_EQ(line, oldline + "\n");

  // And an old-log line decodes with a zero context.
  LeaseRecord back;
  ASSERT_TRUE(decode_lease_record(oldline, &back));
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.span_id, 0u);
}

// ------------------------------------------------------- shard merging

/// One complete trace-event line in the exporters' strict format.
std::string ev_line(const std::string& name, std::uint64_t ts,
                    std::uint64_t dur) {
  std::ostringstream os;
  os << "{\"name\":\"" << name << "\",\"cat\":\"t\",\"ph\":\"X\",\"ts\":" << ts
     << ",\"dur\":" << dur << ",\"pid\":0,\"tid\":0,\"args\":{}}";
  return os.str();
}

void write_shard(const std::string& dir, const std::string& file,
                 std::uint64_t epoch_ms,
                 const std::vector<std::string>& lines) {
  std::ofstream out(dir + "/" + file, std::ios::binary);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":0,"
      << "\"epochMs\":" << epoch_ms << "},\n\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i)
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  out << "]}\n";
}

TEST(TraceMerge, DeterministicAcrossWorkerCounts) {
  for (const int workers : {1, 2, 8}) {
    const std::string dir =
        fresh_dir("merge" + std::to_string(workers));
    write_shard(dir, "trace.json", 1000, {ev_line("run.main", 0, 1000)});
    for (int k = 0; k < workers; ++k) {
      write_shard(dir, "trace-w" + std::to_string(k) + ".json", 1000,
                  {ev_line("fabric.task", 5, 20), ev_line("solve", 8, 10)});
    }
    const obs::TraceMergeResult a = obs::merge_trace_shards(dir);
    const obs::TraceMergeResult b = obs::merge_trace_shards(dir);
    // The merge is a pure function of the shard bytes: re-running it
    // yields identical output, byte for byte.
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.events, static_cast<std::size_t>(1 + 2 * workers));
    ASSERT_EQ(a.shards.size(), static_cast<std::size_t>(1 + workers));
    EXPECT_EQ(a.shards[0].pid, 0u);  // supervisor first
    for (int k = 0; k < workers; ++k) {
      EXPECT_EQ(a.shards[static_cast<std::size_t>(1 + k)].pid,
                static_cast<std::uint32_t>(2 + k));
      EXPECT_FALSE(a.shards[static_cast<std::size_t>(1 + k)].torn);
    }
  }
}

TEST(TraceMerge, WorkerPidsAreStableUnderShardSubsets) {
  // Worker k owns pid 2+k no matter which other shards exist, so a
  // resumed or partially-crashed run names processes consistently.
  const std::string dir = fresh_dir("subset");
  write_shard(dir, "trace-w3.json", 1000, {ev_line("fabric.task", 1, 2)});
  const obs::TraceMergeResult r = obs::merge_trace_shards(dir);
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_EQ(r.shards[0].pid, 5u);
  EXPECT_EQ(r.shards[0].label, "worker w3");
  EXPECT_NE(r.json.find("\"pid\":5"), std::string::npos);
}

TEST(TraceMerge, AlignsShardsOnWallClockEpochs) {
  // The worker started 250 ms after the supervisor (per their exported
  // epochMs); its events shift by 250'000 us onto the common timeline.
  const std::string dir = fresh_dir("epochs");
  write_shard(dir, "trace.json", 1000, {ev_line("run.main", 0, 500000)});
  write_shard(dir, "trace-w0.json", 1250, {ev_line("fabric.task", 10, 20)});
  const obs::TraceMergeResult r = obs::merge_trace_shards(dir);
  EXPECT_NE(r.json.find("\"ts\":250010"), std::string::npos) << r.json;
  EXPECT_NE(r.json.find("\"epochMs\":1000"), std::string::npos);
}

TEST(TraceMerge, ToleratesTornShard) {
  // A worker killed mid-write leaves a shard without its "]}" terminator
  // and with a half-written final line; the merge keeps every complete
  // line, flags the shard torn, and still emits a valid document.
  const std::string dir = fresh_dir("torn");
  write_shard(dir, "trace.json", 1000, {ev_line("run.main", 0, 100)});
  {
    std::ofstream out(dir + "/trace-w0.json", std::ios::binary);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":0,"
        << "\"epochMs\":1000},\n\"traceEvents\":[\n"
        << ev_line("fabric.task", 5, 10) << ",\n"
        << "{\"name\":\"half";  // torn mid-line, no terminator
  }
  const obs::TraceMergeResult r = obs::merge_trace_shards(dir);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_FALSE(r.shards[0].torn);
  EXPECT_TRUE(r.shards[1].torn);
  EXPECT_EQ(r.shards[1].events, 1u);  // the complete line survived
  EXPECT_EQ(r.events, 2u);
  EXPECT_EQ(r.json.substr(r.json.size() - 4), "\n]}\n");
  EXPECT_EQ(r.json.find("half"), std::string::npos);
}

TEST(MetricsMerge, SumsCountersAcrossShards) {
  const std::string dir = fresh_dir("metrics");
  const auto write = [&](const std::string& file, const std::string& name,
                         double value) {
    std::ofstream out(dir + "/" + file, std::ios::binary);
    out << "{\"metrics\":[\n{\"name\":\"" << name
        << "\",\"type\":\"counter\",\"value\":" << value << "}\n]}\n";
  };
  write("metrics-w0.json", "service.requests", 3);
  write("metrics-w1.json", "service.requests", 4);
  write("metrics.json", "thermal.solves", 2);

  const std::map<std::string, double> counters = obs::merged_counters(dir);
  ASSERT_TRUE(counters.count("service.requests"));
  EXPECT_DOUBLE_EQ(counters.at("service.requests"), 7.0);
  EXPECT_DOUBLE_EQ(counters.at("thermal.solves"), 2.0);

  const obs::MetricsMergeResult merged = obs::merge_metrics_shards(dir);
  EXPECT_EQ(merged.shards.size(), 3u);
  EXPECT_EQ(merged.series, 3u);
  EXPECT_NE(merged.json.find("service.requests"), std::string::npos);
}

}  // namespace
}  // namespace tacos
