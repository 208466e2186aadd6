#include "entry/run_options.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/errors.hpp"

namespace tacos::entry {
namespace {

// One row per flag of the table: a documented good value, what it sets,
// and — for a numeric flag — a well-formed value outside its range.
struct Case {
  Flag flag;
  std::string good;
  bool (*took)(const RunOptions&);
  std::string out_of_range;  // empty: not a numeric flag
};

const std::vector<Case>& cases() {
  static const std::vector<Case> rows = {
      {kThreads, "--threads=4",
       [](const RunOptions& o) { return o.threads == 4; }, "--threads=0"},
      {kWorkers, "--workers=4",
       [](const RunOptions& o) { return o.workers == 4; }, "--workers=0"},
      {kLeaseTtlMs, "--lease-ttl-ms=500",
       [](const RunOptions& o) { return o.lease_ttl_ms == 500; },
       "--lease-ttl-ms=0"},
      {kRunDir, "--run-dir=runs/a",
       [](const RunOptions& o) { return o.run_dir == "runs/a"; }, ""},
      {kResume, "--resume",
       [](const RunOptions& o) { return o.resume; }, ""},
      {kTaskDeadline, "--task-deadline=2.5",
       [](const RunOptions& o) {
         return o.experiment.run.task_deadline_s == 2.5;
       },
       "--task-deadline=-5"},
      {kPrecond, "--precond=jacobi",
       [](const RunOptions& o) {
         return o.experiment.precond == PrecondKind::kJacobi;
       },
       ""},
      {kFidelity, "--fidelity=ladder",
       [](const RunOptions& o) { return o.fidelity == FidelityMode::kLadder; },
       ""},
      {kRefine, "--refine",
       [](const RunOptions& o) { return o.experiment.refine; }, ""},
      {kRefineTolMm, "--refine-tol-mm=0.01",
       [](const RunOptions& o) { return o.experiment.refine_tol_mm == 0.01; },
       "--refine-tol-mm=0"},
      {kFaultPcgEvery, "--fault-pcg-every=20",
       [](const RunOptions& o) { return o.fault.pcg_fail_every == 20; },
       "--fault-pcg-every=0"},
      {kFaultPcgRungs, "--fault-pcg-rungs=4",
       [](const RunOptions& o) { return o.fault.pcg_fail_rungs == 4; },
       "--fault-pcg-rungs=0"},
      {kFaultLeakNonconverge, "--fault-leak-nonconverge",
       [](const RunOptions& o) { return o.fault.leak_force_nonconverge; },
       ""},
      {kFaultWorkerCrashAfter, "--fault-worker-crash-after=1",
       [](const RunOptions& o) { return o.fault.worker_crash_after == 1; },
       "--fault-worker-crash-after=0"},
      {kFaultWorkerCrashTask, "--fault-worker-crash-task=hpccg",
       [](const RunOptions& o) {
         return o.fault.worker_crash_task == "hpccg";
       },
       ""},
      {kFaultLeaseStallMs, "--fault-lease-stall-ms=5000",
       [](const RunOptions& o) { return o.fault.lease_stall_ms == 5000; },
       "--fault-lease-stall-ms=0"},
      {kMetrics, "--metrics=m.json",
       [](const RunOptions& o) {
         return o.obs.metrics && o.obs.metrics_path == "m.json";
       },
       ""},
      {kTrace, "--trace",
       [](const RunOptions& o) { return o.obs.trace; }, ""},
      {kSelftest, "--selftest=32",
       [](const RunOptions& o) { return o.selftest == 32u; },
       "--selftest=0"},
      {kFix, "--fix", [](const RunOptions& o) { return o.fix; }, ""},
      {kFabricWorker, "--fabric-worker=0",
       [](const RunOptions& o) { return o.fabric_worker == 0; },
       "--fabric-worker=-1"},
      {kFabricIncarnation, "--fabric-incarnation=2",
       [](const RunOptions& o) { return o.fabric_incarnation == 2; },
       "--fabric-incarnation=-1"},
      {kTraceCtx, "--trace-ctx=00000000000000ab:00000000000000cd",
       [](const RunOptions& o) {
         return o.obs.inherited_ctx.trace_id == 0xab &&
                o.obs.inherited_ctx.span_id == 0xcd;
       },
       ""},
  };
  return rows;
}

/// The flag name of a `--name[=value]` token.
std::string name_of(const std::string& token) {
  return token.substr(0, token.find('='));
}

/// The UsageError message `token` raises under `flags` ("" if none).
std::string error_of(const std::string& token, FlagSet flags) {
  RunOptions o;
  try {
    apply_flag(token, flags, o);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(RunOptions, TableCoversEveryFlagOnce) {
  for (FlagSet bit = 1; bit <= kTraceCtx; bit <<= 1) {
    int rows = 0;
    for (const Case& c : cases()) rows += c.flag == bit;
    EXPECT_EQ(rows, 1) << "flag bit " << bit;
  }
  EXPECT_EQ(cases().size(), 23u);
}

TEST(RunOptions, EveryFlagParsesItsGoodValue) {
  for (const Case& c : cases()) {
    RunOptions o;
    EXPECT_NO_THROW(apply_flag(c.good, c.flag, o)) << c.good;
    EXPECT_TRUE(c.took(o)) << c.good;
  }
  // The value of an optional-value flag may be left out.
  RunOptions o;
  apply_flag("--selftest", kSelftest, o);
  EXPECT_EQ(o.selftest, 64u);
  apply_flag("--metrics", kObsFlags, o);
  EXPECT_TRUE(o.obs.metrics && o.obs.metrics_path.empty());
}

TEST(RunOptions, NumericFlagsRejectBadValuesWithOneError) {
  for (const Case& c : cases()) {
    if (c.out_of_range.empty()) continue;
    const std::string name = name_of(c.good);
    const FlagSet only = c.flag;
    // "bad --name value (want ...): " followed by the offending token.
    std::string want = error_of(c.out_of_range, only);
    want.resize(want.size() - c.out_of_range.size());
    EXPECT_EQ(want.rfind("bad " + name + " value (want ", 0), 0u) << want;
    for (const std::string& bad : {name + "=abc", name + "=4x",
                                   name + "=1e999", name + "=nan",
                                   name + "=", c.out_of_range})
      EXPECT_EQ(error_of(bad, only), want + bad) << bad;
  }
}

TEST(RunOptions, ChoiceAndSwitchFlagsRejectBadValues) {
  for (const char* bad :
       {"--precond=multigrid", "--fidelity=fast", "--resume=1", "--refine=yes",
        "--fault-worker-crash-task=", "--run-dir", "--fix=1"}) {
    const std::string name = name_of(bad);
    const std::string e = error_of(bad, kCliFlags | kFix);
    EXPECT_EQ(e.rfind("bad " + name + " value (want ", 0), 0u) << bad;
  }
}

// The flags each binary declares (src/entry/run_options.hpp, bench/*.cpp,
// tools/tacos_cli.cpp): any other flag is unknown there.
TEST(RunOptions, EachBinaryRejectsFlagsOutsideItsSet) {
  const struct {
    const char* binaries;
    FlagSet flags;
  } binaries[] = {
      {"tacos_cli", kCliFlags},
      {"tacos_cli fsck", kFix},
      {"fig3a_cost_model, tab_cost_claims, tab_network_power, "
       "micro_eval_engine",
       kObsFlags},
      {"fig3b, fig5, fig6, fig7, tab_improvement_summary", kJournalFlags},
      {"fig8_chosen_orgs, tab_greedy_validation",
       kJournalFlags | kRefineFlags},
      {"ext_alloc_ablation, ext_multiapp, ext_phase_trace, ext_reliability, "
       "ext_sensitivity, ext_sprinting",
       kSolveFlags},
      {"ext_annealing", kSolveFlags | kRefineFlags},
      {"micro_solver", kSolveFlags | kSelftest},
  };
  for (const auto& b : binaries) {
    for (const Case& c : cases()) {
      const std::string e = error_of(c.good, b.flags);
      if (b.flags & c.flag)
        EXPECT_EQ(e, "") << b.binaries << ": " << c.good;
      else
        EXPECT_EQ(e, "unknown flag: " + c.good) << b.binaries;
    }
    // Retired flags are unknown everywhere.
    for (const std::string retired :
         {"--mg-mixed", "--surrogate-keep-frac=0.1", "--remote=x"})
      EXPECT_EQ(error_of(retired, b.flags), "unknown flag: " + retired);
  }
  EXPECT_EQ(error_of("12", kCliFlags), "unexpected argument: 12");
}

TEST(RunOptions, UsageListsExactlyTheDeclaredPublicFlags) {
  const FlagSet set = kJournalFlags;
  const std::string text = usage_text("/path/to/fig5_spacing_sweep", set,
                                      "[grid]");
  EXPECT_EQ(text.rfind("usage: fig5_spacing_sweep [flags] [grid]\n", 0),
            0u)
      << text;
  for (const Case& c : cases()) {
    const bool internal = c.flag == kFabricWorker ||
                          c.flag == kFabricIncarnation ||
                          c.flag == kTraceCtx;
    const std::string entry = std::string("\n  ").append(name_of(c.good));
    const bool listed = text.find(entry) != std::string::npos;
    EXPECT_EQ(listed, (set & c.flag) && !internal) << name_of(c.good);
  }
  // Internal flags never show, even where they are accepted.
  EXPECT_EQ(usage_text("tacos_cli", kCliFlags, "").find("--fabric-worker"),
            std::string::npos);
}

TEST(RunOptions, PositionalNumbersParseWhole) {
  EXPECT_EQ(positional<int>("4", "n"), 4);
  EXPECT_EQ(positional<double>("-2.5", "alpha"), -2.5);
  for (const char* bad : {"abc", "4x", "4.5", "", " 4", "inf"})
    EXPECT_THROW(positional<int>(bad, "n"), UsageError) << bad;
  EXPECT_THROW(positional<long>("0", "grid", 1), UsageError);
  std::string what;
  try {
    positional<double>("85x", "threshold_c");
  } catch (const UsageError& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "bad threshold_c: 85x");
}

TEST(RunOptions, OpenRunDirAppliesTheResumePolicy) {
  RunOptions no_dir;
  no_dir.resume = true;
  EXPECT_EQ(open_run_dir(no_dir, /*journal=*/true), exit_code::kUsage);

  const std::string dir = testing::TempDir() + "tacos_open_run_dir";
  std::filesystem::remove_all(dir);
  {
    RunOptions o;
    o.run_dir = dir;
    ASSERT_EQ(open_run_dir(o, /*journal=*/true), exit_code::kOk);
    ASSERT_NE(o.journal, nullptr);
    EXPECT_EQ(o.experiment.run.journal, o.journal.get());
    o.journal->append("task:a", "payload");
  }
  {
    RunOptions o;  // a journal with tasks needs --resume
    o.run_dir = dir;
    EXPECT_EQ(open_run_dir(o, /*journal=*/true), exit_code::kUsage);
  }
  {
    RunOptions o;
    o.run_dir = dir;
    o.resume = true;
    ASSERT_EQ(open_run_dir(o, /*journal=*/true), exit_code::kOk);
    EXPECT_TRUE(o.journal->has("task:a"));
  }
  {
    RunOptions o;  // a command that does not journal leaves it closed
    o.run_dir = dir;
    EXPECT_EQ(open_run_dir(o, /*journal=*/false), exit_code::kOk);
    EXPECT_EQ(o.journal, nullptr);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tacos::entry
