#pragma once
/// \file fsck.hpp
/// \brief Offline validation (and optional repair) of a run directory's
///        durable files — the salvage entry point behind `tacos_cli fsck`.
///
/// A `--run-dir` accumulates several kinds of checksummed JSONL:
///
///   * whole-file-rewrite journals (`journal.jsonl`, `shard-w<k>.jsonl`) —
///     strict-prefix semantics: every record up to the first torn/corrupt
///     line is trusted, everything at and after it is a torn tail
///     (`RunJournal::load` silently recomputes those tasks);
///   * the append-only lease log (`leases.jsonl`) — an event log whose
///     readers skip corrupt lines *anywhere* and tolerate an incomplete
///     final line (a writer caught mid-append).
///
/// Both recovery behaviors already exist implicitly inside `--resume`;
/// fsck makes them an explicit, non-destructive report — and, with
/// `fix = true`, rewrites each damaged file down to its valid content
/// through AtomicFile, so the damage is acknowledged once instead of
/// re-tolerated on every future open.  Files fsck does not recognize are
/// left untouched and unreported.

#include <cstddef>
#include <string>
#include <vector>

namespace tacos {

/// Findings for one durable file.
struct FsckFile {
  std::string name;             ///< filename within the run dir
  bool event_log = false;       ///< lease-log semantics (vs strict prefix)
  /// Telemetry artifact (trace/metrics shard): validated and reported,
  /// but damage never fails the run — a torn shard only loses
  /// observability, never results (trace-merge tolerates it too).
  bool advisory = false;
  std::size_t valid = 0;        ///< intact records
  std::size_t corrupt = 0;      ///< damaged/torn lines (dropped on read)
  bool torn_tail = false;       ///< damage includes the end of the file
  bool fixed = false;           ///< rewritten to valid content (fix mode)
};

/// Findings for a whole run directory.
struct FsckReport {
  std::vector<FsckFile> files;

  /// Total damaged lines across every file.
  std::size_t total_corrupt() const {
    std::size_t n = 0;
    for (const FsckFile& f : files) n += f.corrupt;
    return n;
  }
  /// True when every file is intact (or was repaired in fix mode).
  /// Advisory files (telemetry artifacts) never fail a run.
  bool clean() const {
    for (const FsckFile& f : files)
      if (f.corrupt > 0 && !f.fixed && !f.advisory) return false;
    return true;
  }
};

/// Validate one journal-format file (strict-prefix semantics).  With
/// `fix`, a damaged file is atomically rewritten to its valid prefix.
FsckFile fsck_journal_file(const std::string& path, bool fix);

/// Validate one lease-log file (corrupt lines skippable anywhere).  With
/// `fix`, a damaged file is atomically rewritten to its valid lines only.
FsckFile fsck_lease_file(const std::string& path, bool fix);

/// Validate one telemetry artifact (`trace*.json` / `metrics*.json`):
/// counts complete event/metric lines and flags a missing terminator as a
/// torn tail.  Always advisory — damage is reported, never fatal, and
/// `fix` is ignored (shards are merged tolerantly, not repaired).
FsckFile fsck_telemetry_file(const std::string& path);

/// Validate every recognized durable file in `dir`: the canonical journal,
/// every `shard-w*.jsonl`, the memo cache, the lease log, and — advisory
/// only — the telemetry shards.  Throws tacos::Error when `dir` does not
/// exist.
FsckReport fsck_run_dir(const std::string& dir, bool fix);

}  // namespace tacos
