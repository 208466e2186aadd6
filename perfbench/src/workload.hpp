#pragma once
/// \file workload.hpp
/// \brief The unit of measurement: a workload is a fixed list of
///        deterministic units, run in passes from fresh state.
///
/// The harness (main.cpp) starts every pass with many timed setup() calls
/// (their median over the run is `setup_s`) and keeps the last one's
/// fresh state; then it times each unit and collects the pass's outputs.
/// A unit that throws or reports failure is counted as failed; the pass
/// goes on.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Work counts of one pass, taken from the library's return values (never
/// from the metrics registry), so traced and untraced passes report them
/// alike and can be compared.
struct Counts {
  std::size_t full_solves = 0;   ///< EvalStats::solves (pre-heat iterations on transient)
  std::size_t evals = 0;         ///< EvalStats::evals
  std::size_t combos = 0;        ///< OptResult::combos_tried
  std::size_t screened = 0;      ///< LadderStats
  std::size_t rejected = 0;
  std::size_t surrogate_scores = 0;
  std::size_t coarse_solves = 0;
  std::size_t medium_solves = 0;
  std::size_t leak_nonconverged = 0;
  std::size_t recoveries = 0;    ///< cold restarts + cap retries + GS fallbacks
  std::size_t steps = 0;         ///< transient steps
  std::size_t step_iters = 0;    ///< PCG iterations of the transient steps
  std::size_t journal_rows = 0;  ///< journal records after the pass
  std::size_t journal_bytes = 0; ///< journal file size after the pass

  bool operator==(const Counts&) const = default;
  /// Named view, for the diagnostics.
  std::map<std::string, double> named() const;
};

/// Everything one pass produced.
struct PassOutput {
  /// Canonical outputs, one line per result, with every double at full
  /// precision: compared byte for byte across passes and, on the default
  /// seed, against the stored reference.
  std::string digest;
  Counts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Fresh state for a pass; also the timed set-up (`setup_s`).
  virtual void setup() = 0;
  /// Unit `i` of every pass does the same work, so its minimum over passes
  /// is well defined.
  virtual std::size_t unit_count() const = 0;
  /// Units whose times make up the latency percentiles.
  virtual bool latency_unit(std::size_t i) const = 0;
  /// Run unit `i` of the current pass; false (or a throw) marks it failed.
  virtual bool run_unit(std::size_t i) = 0;
  /// Close the pass and return its outputs.
  virtual PassOutput finish_pass() = 0;
  /// Release what setup() acquired (untimed); finish_pass() calls it too.
  virtual void teardown() {}
  /// Correctness checks on a pass's outputs: invariants for any seed, and
  /// the stored reference on the default seed.  Returns the errors found.
  virtual std::vector<std::string> check(const PassOutput& out) = 0;
};

struct WorkloadOptions {
  std::uint64_t seed = 0;
  std::string reference_dir;  ///< stored reference outputs
  std::string scratch_dir;    ///< where the sweep writes its run dirs
  /// Record mode (`--record-reference`): the sweep runs at full fidelity,
  /// so its stored winners are full fidelity's.
  bool full_fidelity = false;
};

std::unique_ptr<Workload> make_sweep_g24(const WorkloadOptions& o);
std::unique_ptr<Workload> make_transient_g32(const WorkloadOptions& o);

/// Every workload's default seed; README.md lists the held-out ones.
constexpr std::uint64_t kDefaultSeed = 2018;

/// Reads `<dir>/<workload>.seed<seed>.txt`; empty when there is none.
std::string read_reference(const std::string& dir, const std::string& name,
                           std::uint64_t seed);

/// Compares digests line by line.  A digest line is a label followed by
/// `key=value` tokens.  Keys in `tolerant` must agree within `tol`
/// (absolute), keys in `ignored` are skipped, every other key must match
/// byte for byte.  Returns one message per mismatch.
std::vector<std::string> compare_digests(const std::string& actual,
                                         const std::string& reference,
                                         const std::vector<std::string>& tolerant,
                                         double tol,
                                         const std::vector<std::string>& ignored);

/// "%.17g": every digit of a double.
std::string full(double v);

}  // namespace perfbench
