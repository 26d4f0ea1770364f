#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "util/check.hpp"

namespace xlp::bench {

/// Handle a benchmark body receives once per timed repeat. The harness
/// times the whole call; the body describes what it did so the harness can
/// normalize:
///   - set_items(n): n operations per call -> ns_per_op = wall / n
///   - set_rate(name, amount): amount of work per call -> harness reports
///     "<name>_per_sec" = amount / wall (e.g. simulated cycles, packets)
///   - set_counter(name, v): deterministic fact (evaluations, packets
///     finished) recorded verbatim — these must not depend on wall time
///   - set_time_ns(name, ns): a wall-derived latency the body measured
///     itself (tail quantiles, sub-phase timings). Reported as the median
///     across repeats and zeroed under --deterministic, like rates. The
///     name must end in "_ns": that suffix is how `xlp diff` knows the
///     metric is a lower-is-better timing, skipped in exact comparisons.
///   - set_payload(json): arbitrary structured series attached to the
///     result (the figure benches park their plot points here)
class BenchRun {
 public:
  void set_items(long items) { items_ = items; }
  void set_rate(std::string name, double amount) {
    rates_.emplace_back(std::move(name), amount);
  }
  void set_counter(std::string name, double value) {
    counters_.emplace_back(std::move(name), value);
  }
  void set_time_ns(std::string name, double ns) {
    XLP_REQUIRE(name.ends_with("_ns"),
                "timing metric '" + name + "' must end in _ns");
    times_.emplace_back(std::move(name), ns);
  }
  void set_payload(obs::Json payload) { payload_ = std::move(payload); }

 private:
  friend class Runner;
  long items_ = 1;
  std::vector<std::pair<std::string, double>> rates_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::pair<std::string, double>> times_;
  obs::Json payload_;
  bool has_payload() const { return !payload_.is_null(); }
};

using BenchFn = std::function<void(BenchRun&)>;

/// One registered benchmark. `suite` groups benchmarks into one
/// BENCH_<suite>.json document; `name` identifies it within the suite;
/// `tags` is a space-separated label list ("smoke"); the filter also
/// matches against each tag.
struct BenchSpec {
  std::string suite;
  std::string name;
  std::string tags;
  BenchFn fn;
};

/// Process-wide benchmark registry. Registration is explicit (call
/// register_all_suites() or your own registrar from main) — no static
/// initializers, so linking the harness never drags benchmarks in
/// silently.
class Registry {
 public:
  [[nodiscard]] static Registry& global();
  void add(BenchSpec spec);
  [[nodiscard]] const std::vector<BenchSpec>& specs() const noexcept {
    return specs_;
  }
  void clear() { specs_.clear(); }

 private:
  std::vector<BenchSpec> specs_;
};

/// Convenience wrapper over Registry::global().add().
void register_bench(std::string suite, std::string name, std::string tags,
                    BenchFn fn);

struct RunnerOptions {
  int warmup = 1;    // untimed calls before measuring
  int repeats = 5;   // timed calls; statistics are over these
  /// Regex matched against "suite/name" and against each tag; a benchmark
  /// runs when either matches. Empty = run everything.
  std::string filter;
  /// Directory for BENCH_<suite>.json; empty = don't write files.
  std::string out_dir = ".";
  /// Zeroes every wall-time-derived field in the emitted JSON so two runs
  /// with the same seed produce byte-identical documents (tests, and a
  /// sanity mode for diffing structure). Counters and payloads remain.
  bool deterministic = false;
  obs::Provenance provenance;
};

/// Measured result of one benchmark: per-op nanoseconds over the repeat
/// distribution plus the rates/counters the body declared.
struct BenchResult {
  std::string suite;
  std::string name;
  std::string tags;
  int repeats = 0;
  long items = 1;
  double min_ns = 0.0;     // per op
  double median_ns = 0.0;  // per op
  double mean_ns = 0.0;    // per op
  double total_seconds = 0.0;  // wall time across all repeats
  std::vector<std::pair<std::string, double>> rates;  // median amount/sec
  std::vector<std::pair<std::string, double>> counters;  // last repeat
  std::vector<std::pair<std::string, double>> times;  // median ns
  obs::Json payload;  // null unless the body attached one
};

struct SuiteReport {
  std::string suite;
  std::vector<BenchResult> results;
};

/// Schema identifier stamped into every document this harness writes.
inline constexpr const char* kBenchSchema = "xlp-bench/1";

class Runner {
 public:
  explicit Runner(RunnerOptions options) : options_(std::move(options)) {}

  /// Runs every registered benchmark matching the filter, in registration
  /// order, grouped by suite. Also writes BENCH_<suite>.json per suite
  /// when out_dir is set.
  [[nodiscard]] std::vector<SuiteReport> run() const;

  /// Serializes one suite: {"schema","kind":"suite","suite","provenance",
  /// "options","benchmarks":[...]} with fixed member order.
  [[nodiscard]] obs::Json suite_to_json(const SuiteReport& report) const;

  /// Prints a fixed-width summary table of every result to stdout.
  static void print(const std::vector<SuiteReport>& reports);

 private:
  [[nodiscard]] BenchResult run_one(const BenchSpec& spec) const;
  RunnerOptions options_;
};

/// Writes `doc` as `<dir>/BENCH_<name>.json` (creating directories as
/// needed); returns the path, or an empty string on failure.
std::string write_bench_json(const std::string& dir, const std::string& name,
                             const obs::Json& doc);

/// Runs the registry through `options` and prints the summary table. When
/// `profile_path` is set the hierarchical profiler records the run and its
/// collapsed-stack dump lands there; when `list_only` is set nothing runs
/// and the selected benchmarks are listed instead. A filter that selects
/// nothing throws Error(kUsage). Returns a process exit code; `xlp bench`
/// is the caller.
int run_and_report(const RunnerOptions& options,
                   const std::string& profile_path, bool list_only);

}  // namespace xlp::bench
