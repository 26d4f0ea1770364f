#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace xlp::obs {

/// Events of one trace phase: how many, and the `ts` of the first and
/// last (seconds since the trace sink was created).
struct TracePhase {
  long events = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;
};

/// One plotted line: a name (becomes the legend label) and (x, y) points.
struct ChartSeries {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

/// Everything `xlp report` understands inside a run directory. Files are
/// classified by content, not filename, so the CLI's free-form --trace /
/// --stats-json / --series paths all work as long as they land in the
/// directory being reported.
struct RunDirData {
  std::string dir;
  std::optional<Json> series;   // xlp-series/1 document (SeriesRecorder)
  std::optional<Json> stats;    // SimStats serialization
  std::optional<Json> metrics;  // MetricsRegistry serialization
  std::optional<Json> profile;  // ProfileReport::to_json() array
  /// Final `xlpd` stats snapshot ("kind":"stats" + latency histograms).
  std::optional<Json> server_stats;
  /// ledger.jsonl records, file order; xlpd's carry a `lifecycle` member.
  std::vector<Json> ledger;
  /// Last `sim.channel_utilization` event found in any JSONL trace.
  std::optional<Json> heatmap;
  /// Every JSONL trace event, grouped by its `phase` member (the event
  /// name when it has none), in key order.
  std::map<std::string, TracePhase> trace_phases;
};

/// Scans `dir` (non-recursive, entries in name order): parses every *.json
/// and *.jsonl file and buckets what it recognizes. Unreadable or
/// unrecognized files are skipped — reporting is best-effort.
[[nodiscard]] RunDirData collect_run_dir(const std::string& dir);

/// Chart inputs from an xlp-series/1 document, one ChartSeries per
/// recorded series in name order.
[[nodiscard]] std::vector<ChartSeries> chart_series_from_json(
    const Json& series_doc);

/// Dependency-free inline SVG line chart: axes with min/max tick labels, a
/// fixed color palette, and a legend. Safe to embed directly in HTML.
[[nodiscard]] std::string svg_line_chart(const std::string& title,
                                         const std::vector<ChartSeries>& series,
                                         int width = 660, int height = 240);

/// Bar chart of an xlp-hist/1 latency histogram (docs/observability.md):
/// one bar per populated bucket, nanosecond tick labels, and the
/// p50/p90/p99 quantiles in the title line. "No samples" placeholder when
/// the histogram is empty.
[[nodiscard]] std::string svg_latency_histogram(const std::string& title,
                                                const Json& hist);

/// Channel-utilization heatmap from a `sim.channel_utilization` event:
/// routers on their mesh grid, each directed channel a line colored by
/// utilization (blue 0 -> red 1). Uses the event's width/height when
/// present, else assumes a square mesh.
[[nodiscard]] std::string svg_channel_heatmap(const Json& heatmap_event);

/// Wraps body markup in the self-contained report page (inline CSS, no
/// scripts, no external references).
[[nodiscard]] std::string html_page(const std::string& title,
                                    const std::string& body);

/// Renders the full single-file HTML dashboard for one run directory: line
/// charts for every recorded series, the channel heatmap,
/// the stats summary, the server section (stats snapshot plus the
/// per-request lifecycles of the ledger), the trace phase table, the
/// profiler tree table, the counters and the run ledger.
[[nodiscard]] std::string render_report_html(const RunDirData& data);

/// Escapes &<>" for embedding untrusted strings in HTML/SVG text.
[[nodiscard]] std::string html_escape(const std::string& raw);

}  // namespace xlp::obs
