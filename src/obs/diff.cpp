#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>

#include "obs/canonical.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace xlp::obs {

namespace {

namespace fs = std::filesystem;

constexpr const char* kAbsent = "-";

/// Shortest round-trip form, so two different values never print alike.
std::string fmt(double v) { return Json(v).dump(); }

/// A value compared by its printed form: payload hashes, provenance, or a
/// side that lacks the value.
DiffRow text_row(const std::string& scope, const std::string& metric,
                 std::string a, std::string b) {
  const Verdict verdict = a == b ? Verdict::kSame : Verdict::kChanged;
  return {scope, metric, std::move(a), std::move(b),
          std::numeric_limits<double>::quiet_NaN(),
          Direction::kInformational, verdict};
}

/// A value both sides hold as a number: a tracked direction gates on the
/// threshold, an informational one only reports a change.
DiffRow numeric_row(const std::string& scope, const std::string& metric,
                    double a, double b, Direction direction,
                    double threshold_pct) {
  DiffRow row = text_row(scope, metric, fmt(a), fmt(b));
  row.direction = direction;
  row.delta = a == b     ? 0.0
              : a == 0.0 ? std::copysign(HUGE_VAL, b)
                         : (b - a) / std::abs(a);
  row.verdict = a == b ? Verdict::kSame : Verdict::kChanged;
  if (a == b || direction == Direction::kInformational) return row;
  const double sign = direction == Direction::kHigherIsBetter ? -1.0 : 1.0;
  const double worse_pct = sign * row.delta * 100.0;
  row.verdict = worse_pct > threshold_pct    ? Verdict::kRegressed
                : worse_pct < -threshold_pct ? Verdict::kImproved
                                             : Verdict::kOk;
  return row;
}

/// Calls fn(key, a-value-or-null, b-value-or-null) for every key of
/// either map, in key order.
template <typename T, typename Fn>
void for_each_key(const std::map<std::string, T>& a,
                  const std::map<std::string, T>& b, Fn&& fn) {
  std::map<std::string, std::pair<const T*, const T*>> keys;
  for (const auto& [key, value] : a) keys[key].first = &value;
  for (const auto& [key, value] : b) keys[key].second = &value;
  for (const auto& [key, both] : keys) fn(key, both.first, both.second);
}

/// Rows for two keyed number sets; `gated` applies metric_direction().
void number_rows(const std::string& scope,
                 const std::map<std::string, double>& a,
                 const std::map<std::string, double>& b, bool gated,
                 double threshold_pct, std::vector<DiffRow>& rows) {
  for_each_key(a, b, [&](const std::string& key, const double* va,
                         const double* vb) {
    if (va == nullptr || vb == nullptr)
      rows.push_back(text_row(scope, key, va ? fmt(*va) : kAbsent,
                              vb ? fmt(*vb) : kAbsent));
    else
      rows.push_back(numeric_row(
          scope, key, *va, *vb,
          gated ? metric_direction(key) : Direction::kInformational,
          threshold_pct));
  });
}

bool is_deterministic(const Json& doc) {
  const Json* options = doc.find("options");
  const Json* det = options ? options->find("deterministic") : nullptr;
  return det != nullptr && det->type() == Json::Type::kBool && det->as_bool();
}

std::map<std::string, const Json*> benchmarks_by_name(const Json& doc) {
  std::map<std::string, const Json*> out;
  const Json* benches = doc.find("benchmarks");
  for (std::size_t i = 0; benches != nullptr && i < benches->size(); ++i) {
    const Json& bench = benches->at(i);
    if (const Json* name = bench.find("name"); name && name->is_string())
      out[name->as_string()] = &bench;
  }
  return out;
}

/// min_ns / median_ns / mean_ns plus every numeric member of "metrics";
/// without the wall-time-derived ones (*_ns, *_per_sec) when `exact`, as a
/// deterministic document zeroes them.
std::map<std::string, double> bench_numbers(const Json& bench, bool exact) {
  std::map<std::string, double> out;
  for (const char* key : {"min_ns", "median_ns", "mean_ns"})
    if (const Json* v = bench.find(key); v != nullptr && v->is_number())
      out[key] = v->as_number();
  if (const Json* metrics = bench.find("metrics"))
    for (const auto& [key, value] : metrics->members())
      if (value.is_number()) out[key] = value.as_number();
  if (exact)
    std::erase_if(out, [](const auto& entry) {
      return entry.first.ends_with("_ns") ||
             entry.first.ends_with("_per_sec");
    });
  return out;
}

std::string payload_hash(const Json& bench) {
  const Json* payload = bench.find("payload");
  return payload ? fnv1a64_hex(payload->dump()).substr(0, 12) : kAbsent;
}

/// Numeric stats flattened one object level deep ("latency.avg").
std::map<std::string, double> flat_stats(const std::optional<Json>& stats) {
  std::map<std::string, double> out;
  if (!stats) return out;
  for (const auto& [key, value] : stats->members()) {
    if (value.is_number()) out[key] = value.as_number();
    for (const auto& [inner, v] : value.members())
      if (v.is_number()) out[key + "." + inner] = v.as_number();
  }
  return out;
}

/// Every plottable series of a run: recorded xlp-series/1 documents plus
/// the trace-derived ones, keyed by name.
std::map<std::string, ChartSeries> all_series(const RunDirData& data) {
  std::map<std::string, ChartSeries> out;
  if (data.series)
    for (ChartSeries& s : chart_series_from_json(*data.series))
      out[s.name] = std::move(s);
  for (const auto& [name, points] : data.trace_series)
    out[name] = ChartSeries{name, points};
  return out;
}

std::map<std::string, double> series_means(const RunDirData& data) {
  std::map<std::string, double> out;
  for (const auto& [name, s] : all_series(data)) {
    double sum = 0.0;
    for (const auto& point : s.points) sum += point.second;
    out[name] = s.points.empty() ? 0.0 : sum / s.points.size();
  }
  return out;
}

std::string ledger_field(const std::vector<Json>& ledger, const char* key) {
  const Json* v = ledger.empty() ? nullptr : ledger.back().find(key);
  if (v == nullptr) return kAbsent;
  return v->is_string() ? v->as_string() : v->dump();
}

Json load_bench_doc(const std::string& path) {
  const auto text = util::read_file(path);
  if (!text) throw Error(ErrorCode::kIo, "cannot read " + path);
  std::size_t offset = 0;
  auto doc = Json::parse(*text, &offset);
  if (!doc)
    throw Error(ErrorCode::kParse, path + ": JSON syntax error at character " +
                                       std::to_string(offset));
  const Json* schema = doc->find("schema");
  const Json* benches = doc->find("benchmarks");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "xlp-bench/1" || benches == nullptr ||
      !benches->is_array())
    throw Error(ErrorCode::kSchema,
                path + " is not an xlp-bench/1 document with benchmarks");
  return std::move(*doc);
}

/// The row table, then a summary listing the failed rows, whose scopes
/// name their files.
std::string format_rows(const std::vector<DiffRow>& rows,
                        double threshold_pct) {
  std::string out;
  const auto add = [&out](const char* format, auto... args) {
    const int size = std::snprintf(nullptr, 0, format, args...);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(size));
    std::snprintf(out.data() + at, static_cast<std::size_t>(size) + 1, format,
                  args...);
  };
  constexpr const char* kRow = "%-40s %-30s %18s %18s %9s %-6s %s\n";
  constexpr const char* kBetter[] = {"lower", "higher", ""};
  add(kRow, "scope", "metric", "old", "new", "delta", "better", "verdict");
  std::string failed;
  std::size_t failures = 0;
  for (const DiffRow& row : rows) {
    char delta[32] = "";
    if (!std::isnan(row.delta))
      std::snprintf(delta, sizeof(delta), "%+.1f%%", row.delta * 100.0);
    add(kRow, row.scope.c_str(), row.metric.c_str(), row.old_value.c_str(),
        row.new_value.c_str(), delta, kBetter[static_cast<int>(row.direction)],
        to_string(row.verdict));
    if (!fails(row.verdict)) continue;
    ++failures;
    failed += "  " + row.scope + " " + row.metric + " " +
              to_string(row.verdict) + "\n";
  }
  if (failures == 0)
    add("\nno regression beyond %g%% and no exact mismatch\n", threshold_pct);
  else
    add("\n%zu row(s) failed (threshold %g%%):\n", failures, threshold_pct);
  return out + failed;
}

}  // namespace

Direction metric_direction(const std::string& metric) {
  // SimStats nests the loss counters ("faults.packets_lost").
  const std::string leaf = metric.substr(metric.rfind('.') + 1);
  if (metric.ends_with("_ns") || metric.starts_with("latency.") ||
      metric == "avg_contention_per_hop" || leaf == "packets_lost" ||
      leaf == "packets_dropped" || leaf == "packets_unroutable")
    return Direction::kLowerIsBetter;
  if (metric.ends_with("_per_sec") ||
      metric == "throughput_packets_per_node_cycle" ||
      metric == "packets_finished")
    return Direction::kHigherIsBetter;
  return Direction::kInformational;
}

const char* to_string(Verdict verdict) {
  constexpr const char* kNames[] = {"same",    "ok",        "improved",
                                    "changed", "REGRESSED", "MISMATCH"};
  return kNames[static_cast<int>(verdict)];
}

bool fails(Verdict verdict) {
  return verdict == Verdict::kRegressed || verdict == Verdict::kMismatch;
}

std::vector<DiffRow> diff_bench_docs(const Json& old_doc, const Json& new_doc,
                                     const std::string& label,
                                     double threshold_pct) {
  const bool exact = is_deterministic(old_doc) || is_deterministic(new_doc);
  std::vector<DiffRow> rows;
  for_each_key(
      benchmarks_by_name(old_doc), benchmarks_by_name(new_doc),
      [&](const std::string& name, const Json* const* a,
          const Json* const* b) {
        const std::string scope = label + "/" + name;
        if (a == nullptr || b == nullptr) {
          rows.push_back(text_row(scope, "(benchmark)",
                                  a ? "present" : kAbsent,
                                  b ? "present" : kAbsent));
          return;
        }
        number_rows(scope, bench_numbers(**a, exact),
                    bench_numbers(**b, exact), true, threshold_pct, rows);
        if (const std::string pa = payload_hash(**a), pb = payload_hash(**b);
            pa != kAbsent || pb != kAbsent)
          rows.push_back(text_row(scope, "payload", pa, pb));
      });
  if (exact)
    for (DiffRow& row : rows)
      if (row.verdict != Verdict::kSame) row.verdict = Verdict::kMismatch;
  return rows;
}

std::vector<DiffRow> diff_run_dirs(const RunDirData& a, const RunDirData& b,
                                   double threshold_pct) {
  std::vector<DiffRow> rows;
  number_rows("stats", flat_stats(a.stats), flat_stats(b.stats), true,
              threshold_pct, rows);
  number_rows("series", series_means(a), series_means(b), false,
              threshold_pct, rows);
  for (const char* key :
       {"run_id", "subcommand", "seed", "git_sha", "hostname", "params"})
    rows.push_back(text_row("ledger", key, ledger_field(a.ledger, key),
                            ledger_field(b.ledger, key)));
  return rows;
}

int diff_inputs(const std::string& old_path, const std::string& new_path,
                double threshold_pct, const std::string& html_path) {
  std::error_code ec;
  for (const std::string& path : {old_path, new_path})
    if (!fs::exists(path, ec)) throw Error(ErrorCode::kIo, "cannot read " + path);
  const bool dirs = fs::is_directory(old_path, ec);
  if (dirs != fs::is_directory(new_path, ec))
    throw Error(ErrorCode::kUsage,
                "both inputs must be files or both directories");

  // (old, new) bench file pairs; none for two run directories. Listing a
  // file yields no entries.
  std::vector<std::pair<std::string, std::string>> pairs;
  bool bench_dirs = false;
  if (!dirs) pairs.emplace_back(old_path, new_path);
  for (const auto& entry : fs::directory_iterator(old_path, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("BENCH_") || !name.ends_with(".json")) continue;
    bench_dirs = true;
    const std::string candidate = (fs::path(new_path) / name).string();
    if (fs::exists(candidate, ec))
      pairs.emplace_back(entry.path().string(), candidate);
    else
      std::fprintf(stderr, "warning: %s missing from %s, skipped\n",
                   name.c_str(), new_path.c_str());
  }
  if (bench_dirs && pairs.empty())
    throw Error(ErrorCode::kIo,
                "no BENCH_*.json of " + old_path + " in " + new_path);
  std::sort(pairs.begin(), pairs.end());

  std::string text = "diff: " + old_path + " vs " + new_path + "\n";
  std::vector<DiffRow> rows;
  for (const auto& [old_file, new_file] : pairs) {
    const Json old_doc = load_bench_doc(old_file);
    const Json new_doc = load_bench_doc(new_file);
    const std::string label = fs::path(old_file).stem().string();
    if (is_deterministic(old_doc) || is_deterministic(new_doc))
      text += label + ": a deterministic document, compared exactly\n";
    for (DiffRow& row : diff_bench_docs(old_doc, new_doc, label, threshold_pct))
      rows.push_back(std::move(row));
  }
  std::string charts;
  if (dirs && !bench_dirs) {
    const RunDirData a = collect_run_dir(old_path);
    const RunDirData b = collect_run_dir(new_path);
    for (const RunDirData* data : {&a, &b})
      if (!data->stats && !data->series && data->trace_series.empty() &&
          data->ledger.empty())
        throw Error(ErrorCode::kIo, "no telemetry found in " + data->dir);
    rows = diff_run_dirs(a, b, threshold_pct);
    const auto series_a = all_series(a);
    const auto series_b = all_series(b);
    charts = "<h2>Series overlays (old first color, new second)</h2>\n";
    for (const auto& [name, s] : series_a)
      if (const auto it = series_b.find(name); it != series_b.end())
        charts += svg_line_chart(name, {{"old: " + name, s.points},
                                        {"new: " + name, it->second.points}});
  }
  text += format_rows(rows, threshold_pct);
  std::fputs(text.c_str(), stdout);

  if (!html_path.empty()) {
    const std::string title = "xlp diff: " + old_path + " vs " + new_path;
    const std::string body = "<h1>" + html_escape(title) + "</h1>\n<pre>" +
                             html_escape(text) + "</pre>\n" + charts;
    if (!util::atomic_write_file(html_path, html_page(title, body)))
      throw Error(ErrorCode::kIo, "cannot write " + html_path);
    std::printf("html: %s written\n", html_path.c_str());
  }
  for (const DiffRow& row : rows)
    if (fails(row.verdict)) return 1;
  return 0;
}

}  // namespace xlp::obs
