#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace xlp::obs {

/// Which way a metric may move without regressing, keyed by its name:
///   lower is better   *_ns (min_ns / median_ns / mean_ns included),
///                     latency.*, avg_contention_per_hop, packets_lost,
///                     packets_dropped, packets_unroutable (also nested,
///                     as in "faults.packets_lost")
///   higher is better  *_per_sec, throughput_packets_per_node_cycle,
///                     packets_finished
/// Everything else is informational and never gates on a threshold.
enum class Direction { kLowerIsBetter, kHigherIsBetter, kInformational };

[[nodiscard]] Direction metric_direction(const std::string& metric);

/// How one row compared. kRegressed and kMismatch fail the diff.
enum class Verdict { kSame, kOk, kImproved, kChanged, kRegressed, kMismatch };

[[nodiscard]] const char* to_string(Verdict verdict);
[[nodiscard]] bool fails(Verdict verdict);

/// One compared value. `scope` is "<file>/<benchmark>" for bench documents
/// and "stats" / "series" / "ledger" for run directories. A side that
/// lacks the value prints as "-".
struct DiffRow {
  std::string scope;
  std::string metric;
  std::string old_value;
  std::string new_value;
  double delta = 0.0;  // (new - old) / |old|; NaN when not numeric
  Direction direction = Direction::kInformational;
  Verdict verdict = Verdict::kSame;
};

/// Rows comparing two xlp-bench/1 suite documents; `label` (the file stem)
/// starts every scope. When either document's options.deterministic is
/// true the comparison is exact: timing fields (*_ns, *_per_sec) are
/// skipped and any other difference — a metric, a payload, a benchmark or
/// metric only one side has — is a kMismatch. Otherwise tracked metrics
/// gate on `threshold_pct` and the rest is informational.
[[nodiscard]] std::vector<DiffRow> diff_bench_docs(const Json& old_doc,
                                                   const Json& new_doc,
                                                   const std::string& label,
                                                   double threshold_pct);

/// Rows comparing two run directories: stats metrics (gated by direction),
/// series means and the latest ledger record's provenance.
[[nodiscard]] std::vector<DiffRow> diff_run_dirs(const RunDirData& a,
                                                 const RunDirData& b,
                                                 double threshold_pct);

/// `xlp diff <old> <new>`: compares two xlp-bench/1 files, two directories
/// of them (the first holds BENCH_*.json; files the second lacks are
/// skipped) or two run directories. Prints the row table and a summary,
/// and writes both as a self-contained HTML page to a non-empty
/// `html_path`, with series overlays for run directories. Returns 1 when a
/// row failed, else 0. Throws xlp::Error for a missing, unreadable or
/// wrong-kind input and for a run directory without telemetry.
[[nodiscard]] int diff_inputs(const std::string& old_path,
                              const std::string& new_path,
                              double threshold_pct,
                              const std::string& html_path);

}  // namespace xlp::obs
