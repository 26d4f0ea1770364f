#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace xlp::obs {

/// One run-ledger record: what ran, under which scenario, what it wrote
/// and how it ended. Every `xlp` subcommand appends one of these to
/// `<out-dir>/ledger.jsonl`, giving a run directory an append-only
/// provenance log that `xlp report` and `tools/run_diff` read back.
///
/// The run id is the content hash of `params` alone — the scenario
/// identity, deliberately excluding execution details like thread count,
/// wall time, output paths or the git sha, so the same work hashes
/// identically everywhere. It is the construction svc::Request::id() uses:
/// `xlp solve` / `xlp simulate` and xlpd record the request document as
/// params, so a CLI run, an xlpd ledger record and an xlpd reply for the
/// same request carry one id.
struct LedgerEntry {
  std::string subcommand;
  /// Canonical scenario parameters, inserted by each subcommand in a fixed
  /// order: the svc request document for solve / simulate / xlpd, the
  /// nested solve request plus simulate-phase fields for run, and the
  /// flags plus "subcommand" and "seed" for every other subcommand. Must
  /// not contain output paths, thread counts or time limits.
  Json params = Json::object();
  std::uint64_t seed = 0;
  std::string git_sha = "unknown";  ///< provenance; not part of the run id
  std::string hostname = "unknown";
  double wall_seconds = 0.0;
  int exit_status = 0;
  /// Paths of every artifact the run wrote (traces, stats, checkpoints,
  /// series, reports), in the order they were registered.
  std::vector<std::string> artifacts;
  /// Whether this request was served from the svc result cache: -1 (the
  /// default) omits the field — a direct run, not served by `xlpd`; 0 / 1
  /// serialize as `"cache_hit": false / true`. Not part of the run id
  /// (execution detail, like wall time).
  int cache_hit = -1;
  /// How xlpd served the request, timed on the server's uptime clock.
  /// Omitted (nullopt) on CLI records; not part of the run id.
  struct Lifecycle {
    std::string outcome;  ///< cache | miss | inflight | batch | poisoned
    bool cache_corrupt = false;  ///< the lookup quarantined a corrupt entry
    double received_s = 0.0;     ///< when the request was received
    long queue_wait_ns = 0;      ///< receipt to worker pickup
    long execute_ns = 0;         ///< 0 unless this request executed
    long end_to_end_ns = 0;      ///< receipt to reply
  };
  std::optional<Lifecycle> lifecycle;

  /// Content-hashed scenario identity: obs::fnv1a64_hex over
  /// obs::canonical_json(params), 16 lowercase hex chars. Stable across
  /// platforms, processes, thread counts and commits.
  [[nodiscard]] std::string run_id() const;

  /// {"schema":"xlp-ledger/1","run_id",...} with a fixed member order so
  /// identical runs serialize byte-identically (wall_seconds excepted).
  [[nodiscard]] Json to_json() const;
};

/// Appends one record to the JSONL ledger at `path`, creating it (and any
/// parent directories) on first write: one O_APPEND write of the line,
/// then fsync. Concurrent appenders, in one process or several, keep every
/// record. A crash mid-append can tear only that record's line; the next
/// append starts on a fresh line and read_ledger skips the torn one.
/// Returns false, without throwing, when the write failed — ledger output
/// is best-effort telemetry.
[[nodiscard]] bool append_ledger_entry(const std::string& path,
                                       const LedgerEntry& entry);

/// Parses every well-formed record of a JSONL ledger file, skipping
/// malformed lines; empty when the file is missing or unreadable.
[[nodiscard]] std::vector<Json> read_ledger(const std::string& path);

}  // namespace xlp::obs
