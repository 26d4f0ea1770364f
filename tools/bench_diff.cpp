// bench_diff — the regression gate over BENCH_*.json documents.
//
//   bench_diff <old> <new> [--threshold 0.10]
//
// <old> and <new> are either two BENCH_*.json files written by the bench
// harness (schema xlp-bench/1) or two directories; in directory mode every
// BENCH_*.json present in <old> is compared against the same filename in
// <new>. For each benchmark the tracked metrics are compared:
//
//   min_ns / median_ns / mean_ns    lower is better
//   *_per_sec                       higher is better
//   *_p99_ns                        lower is better (tail latencies the
//                                   benchmark body measured itself via
//                                   BenchRun::set_time_ns)
//
// Anything else under "metrics" is informational and printed but never
// gates. Exit code 0 when no tracked metric regressed by more than the
// threshold (relative, default 0.10 = 10%), 1 on any regression, 2 on
// usage or I/O errors. Deterministic counters that drift are reported as
// a note, not a failure — they signal a behavior change, which the unit
// tests own.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

using xlp::obs::Json;

namespace {

struct Metric {
  double value = 0.0;
  bool tracked = false;
  bool higher_better = false;
};

/// benchmark name -> metric name -> value, flattened from one suite doc.
using SuiteMetrics = std::map<std::string, std::map<std::string, Metric>>;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool load_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Parses one BENCH_*.json document into per-benchmark metric maps.
/// Returns false on unparseable or off-schema input.
bool parse_suite(const std::string& path, SuiteMetrics& out) {
  std::string text;
  if (!load_file(path, text)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  std::size_t offset = 0;
  const auto doc = Json::parse(text, &offset);
  if (!doc) {
    std::fprintf(stderr, "error: %s: JSON syntax error at character %zu\n",
                 path.c_str(), offset);
    return false;
  }
  const Json* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "xlp-bench/1") {
    std::fprintf(stderr, "error: %s is not an xlp-bench/1 document\n",
                 path.c_str());
    return false;
  }
  const Json* benches = doc->find("benchmarks");
  if (benches == nullptr || !benches->is_array()) {
    std::fprintf(stderr, "error: %s has no benchmark list\n", path.c_str());
    return false;
  }
  for (std::size_t i = 0; i < benches->size(); ++i) {
    const Json& b = benches->at(i);
    const Json* name = b.find("name");
    if (name == nullptr || !name->is_string()) continue;
    auto& metrics = out[name->as_string()];
    for (const char* key : {"min_ns", "median_ns", "mean_ns"}) {
      if (const Json* v = b.find(key); v != nullptr && v->is_number())
        metrics[key] = {v->as_number(), true, false};
    }
    if (const Json* m = b.find("metrics"); m != nullptr && m->is_object()) {
      for (const auto& [key, value] : m->members()) {
        if (!value.is_number()) continue;
        const bool rate = ends_with(key, "_per_sec");
        const bool tail = ends_with(key, "_p99_ns");
        metrics[key] = {value.as_number(), rate || tail, rate};
      }
    }
  }
  return true;
}

/// Compares one pair of suite maps; prints the delta table rows, appends
/// "bench/metric" to `regressed` for every gate failure, and returns the
/// number of tracked metrics regressed beyond the threshold.
int diff_suites(const std::string& label, const SuiteMetrics& before,
                const SuiteMetrics& after, double threshold,
                std::vector<std::string>& regressed) {
  int regressions = 0;
  for (const auto& [bench, old_metrics] : before) {
    const auto it = after.find(bench);
    if (it == after.end()) {
      std::printf("%-46s %-22s (missing from new run)\n",
                  (label + "/" + bench).c_str(), "");
      continue;
    }
    for (const auto& [metric, old_value] : old_metrics) {
      const auto mit = it->second.find(metric);
      if (mit == it->second.end()) continue;
      const double a = old_value.value;
      const double b = mit->second.value;
      const double delta = a != 0.0 ? (b - a) / a : (b == 0.0 ? 0.0 : 1.0);
      const char* verdict = "";
      if (old_value.tracked) {
        // A regression is slower (ns up) or less throughput (rate down).
        const double regression = old_value.higher_better ? -delta : delta;
        if (regression > threshold) {
          verdict = "REGRESSED";
          ++regressions;
          regressed.push_back(bench + "/" + metric);
        } else if (regression < -threshold) {
          verdict = "improved";
        } else {
          verdict = "ok";
        }
      } else if (a != b) {
        verdict = "note: value changed";
      }
      std::printf("%-46s %-22s %14.4g %14.4g %+8.1f%% %s\n",
                  (label + "/" + bench).c_str(), metric.c_str(), a, b,
                  delta * 100.0, verdict);
    }
  }
  return regressions;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <old.json|old-dir> <new.json|new-dir> "
               "[--threshold 0.10]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) return usage();
      threshold = std::atof(argv[++i]);
      if (threshold < 0.0) return usage();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> pairs;  // (old, new)
  std::error_code ec;
  const bool dir_mode = fs::is_directory(paths[0], ec);
  if (dir_mode != fs::is_directory(paths[1], ec)) {
    std::fprintf(stderr,
                 "error: both arguments must be files or both directories\n");
    return 2;
  }
  if (dir_mode) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(paths[0], ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && ends_with(name, ".json"))
        names.push_back(name);
    }
    if (ec) {
      std::fprintf(stderr, "error: cannot list %s\n", paths[0].c_str());
      return 2;
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
      std::fprintf(stderr, "error: no BENCH_*.json in %s\n",
                   paths[0].c_str());
      return 2;
    }
    for (const auto& name : names) {
      const std::string candidate = paths[1] + "/" + name;
      if (!fs::exists(candidate, ec)) {
        std::fprintf(stderr, "warning: %s missing from %s, skipped\n",
                     name.c_str(), paths[1].c_str());
        continue;
      }
      pairs.emplace_back(paths[0] + "/" + name, candidate);
    }
  } else {
    pairs.emplace_back(paths[0], paths[1]);
  }

  std::printf("%-46s %-22s %14s %14s %9s verdict\n", "benchmark", "metric",
              "old", "new", "delta");
  int regressions = 0;
  // Regressions keyed by the baseline file they came from, so the summary
  // of a directory-mode run names the offending BENCH_*.json outright
  // instead of making the reader scan the delta table.
  std::vector<std::pair<std::string, std::vector<std::string>>> by_file;
  for (const auto& [old_path, new_path] : pairs) {
    SuiteMetrics before, after;
    if (!parse_suite(old_path, before) || !parse_suite(new_path, after))
      return 2;
    const std::string label =
        fs::path(old_path).filename().stem().string();
    std::vector<std::string> regressed;
    regressions += diff_suites(label, before, after, threshold, regressed);
    if (!regressed.empty())
      by_file.emplace_back(fs::path(old_path).filename().string(),
                           std::move(regressed));
  }
  if (regressions > 0) {
    std::printf("\n%d tracked metric(s) regressed beyond %.0f%%\n",
                regressions, threshold * 100.0);
    for (const auto& [file, entries] : by_file) {
      std::printf("  %s: %zu regression(s)\n", file.c_str(), entries.size());
      for (const std::string& entry : entries)
        std::printf("    %s\n", entry.c_str());
    }
    return 1;
  }
  std::printf("\nno tracked metric regressed beyond %.0f%%\n",
              threshold * 100.0);
  return 0;
}
