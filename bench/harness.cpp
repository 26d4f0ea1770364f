#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <regex>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace xlp::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// The registered benchmarks `filter` selects, in registration order: it
/// is matched against "suite/name" and against each tag on its own, so an
/// anchored pattern means the same on both. An empty filter selects all.
std::vector<const BenchSpec*> selected_specs(const std::string& filter) {
  std::optional<std::regex> pattern;
  if (!filter.empty()) pattern.emplace(filter, std::regex::ECMAScript);
  const auto matches = [&](const std::string& text) {
    return !pattern || std::regex_search(text, *pattern);
  };
  std::vector<const BenchSpec*> selected;
  for (const auto& spec : Registry::global().specs()) {
    bool hit = matches(spec.suite + "/" + spec.name);
    std::istringstream tags(spec.tags);
    for (std::string tag; !hit && tags >> tag;) hit = matches(tag);
    if (hit) selected.push_back(&spec);
  }
  return selected;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

}  // namespace

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::add(BenchSpec spec) { specs_.push_back(std::move(spec)); }

void register_bench(std::string suite, std::string name, std::string tags,
                    BenchFn fn) {
  Registry::global().add(
      {std::move(suite), std::move(name), std::move(tags), std::move(fn)});
}

BenchResult Runner::run_one(const BenchSpec& spec) const {
  BenchResult result;
  result.suite = spec.suite;
  result.name = spec.name;
  result.tags = spec.tags;
  result.repeats = options_.repeats;

  // Warmup runs untimed and unprofiled: scopes recorded here would show up
  // as roots outside the benchmark's own scope and dilute its coverage.
  const bool profiling = obs::Profiler::enabled();
  if (profiling) obs::Profiler::disable();
  for (int i = 0; i < options_.warmup; ++i) {
    BenchRun warm;
    spec.fn(warm);
  }
  if (profiling) obs::Profiler::enable();

  // One profiler scope per repeat, named suite/name, so a --profile dump's
  // root scopes are exactly the timed regions of the run.
  const std::string scope_name = spec.suite + "/" + spec.name;
  std::vector<double> per_op_ns;
  per_op_ns.reserve(static_cast<std::size_t>(options_.repeats));
  std::vector<std::vector<std::pair<std::string, double>>> rate_samples;
  std::vector<std::vector<std::pair<std::string, double>>> time_samples;
  for (int i = 0; i < options_.repeats; ++i) {
    BenchRun run;
    const auto start = Clock::now();
    {
      const obs::ProfileScope repeat_scope(scope_name.c_str());
      spec.fn(run);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.total_seconds += seconds;
    result.items = run.items_ > 0 ? run.items_ : 1;
    per_op_ns.push_back(seconds * 1e9 / static_cast<double>(result.items));
    std::vector<std::pair<std::string, double>> rates;
    for (const auto& [name, amount] : run.rates_)
      rates.emplace_back(name + "_per_sec",
                         seconds > 0.0 ? amount / seconds : 0.0);
    rate_samples.push_back(std::move(rates));
    time_samples.push_back(run.times_);
    result.counters = run.counters_;
    if (run.has_payload()) result.payload = std::move(run.payload_);
  }

  result.min_ns = per_op_ns.empty()
                      ? 0.0
                      : *std::min_element(per_op_ns.begin(), per_op_ns.end());
  result.median_ns = median_of(per_op_ns);
  result.mean_ns = mean_of(per_op_ns);

  // Rate names are fixed per benchmark; take the median across repeats.
  if (!rate_samples.empty()) {
    const auto& names = rate_samples.front();
    for (std::size_t r = 0; r < names.size(); ++r) {
      std::vector<double> samples;
      for (const auto& repeat : rate_samples)
        if (r < repeat.size()) samples.push_back(repeat[r].second);
      result.rates.emplace_back(names[r].first, median_of(std::move(samples)));
    }
  }
  // Same treatment for body-measured latencies: fixed names, median value.
  if (!time_samples.empty()) {
    const auto& names = time_samples.front();
    for (std::size_t t = 0; t < names.size(); ++t) {
      std::vector<double> samples;
      for (const auto& repeat : time_samples)
        if (t < repeat.size()) samples.push_back(repeat[t].second);
      result.times.emplace_back(names[t].first, median_of(std::move(samples)));
    }
  }
  return result;
}

std::vector<SuiteReport> Runner::run() const {
  std::vector<SuiteReport> reports;
  for (const BenchSpec* selected : selected_specs(options_.filter)) {
    const BenchSpec& spec = *selected;
    auto it = std::find_if(reports.begin(), reports.end(),
                           [&](const SuiteReport& r) {
                             return r.suite == spec.suite;
                           });
    if (it == reports.end()) {
      reports.push_back({spec.suite, {}});
      it = reports.end() - 1;
    }
    std::fprintf(stderr, "[bench] %s/%s ...\n", spec.suite.c_str(),
                 spec.name.c_str());
    it->results.push_back(run_one(spec));
  }

  if (!options_.out_dir.empty()) {
    for (const auto& report : reports) {
      const std::string path =
          write_bench_json(options_.out_dir, report.suite,
                           suite_to_json(report));
      if (path.empty())
        std::fprintf(stderr, "[bench] warning: failed to write BENCH_%s.json\n",
                     report.suite.c_str());
      else
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    }
  }
  return reports;
}

obs::Json Runner::suite_to_json(const SuiteReport& report) const {
  const bool det = options_.deterministic;
  obs::Json doc = obs::Json::object();
  doc.set("schema", kBenchSchema);
  doc.set("kind", "suite");
  doc.set("suite", report.suite);
  doc.set("provenance", options_.provenance.to_json());
  obs::Json opts = obs::Json::object();
  opts.set("warmup", options_.warmup);
  opts.set("repeats", options_.repeats);
  opts.set("deterministic", det);
  doc.set("options", std::move(opts));
  obs::Json benches = obs::Json::array();
  for (const auto& r : report.results) {
    obs::Json b = obs::Json::object();
    b.set("name", r.name);
    b.set("tags", r.tags);
    b.set("repeats", r.repeats);
    b.set("items", r.items);
    b.set("min_ns", det ? 0.0 : r.min_ns);
    b.set("median_ns", det ? 0.0 : r.median_ns);
    b.set("mean_ns", det ? 0.0 : r.mean_ns);
    obs::Json metrics = obs::Json::object();
    for (const auto& [name, value] : r.rates)
      metrics.set(name, det ? 0.0 : value);
    for (const auto& [name, value] : r.times)
      metrics.set(name, det ? 0.0 : value);
    for (const auto& [name, value] : r.counters) metrics.set(name, value);
    b.set("metrics", std::move(metrics));
    if (!r.payload.is_null()) b.set("payload", r.payload);
    benches.push(std::move(b));
  }
  doc.set("benchmarks", std::move(benches));
  return doc;
}

void Runner::print(const std::vector<SuiteReport>& reports) {
  std::printf("%-40s %14s %14s %14s\n", "benchmark", "min ns/op",
              "median ns/op", "mean ns/op");
  for (const auto& report : reports) {
    for (const auto& r : report.results) {
      const std::string label = report.suite + "/" + r.name;
      std::printf("%-40s %14.1f %14.1f %14.1f\n", label.c_str(), r.min_ns,
                  r.median_ns, r.mean_ns);
      for (const auto& [name, value] : r.rates)
        std::printf("%-40s   %s = %.3g\n", "", name.c_str(), value);
      for (const auto& [name, value] : r.times)
        std::printf("%-40s   %s = %.3g\n", "", name.c_str(), value);
      for (const auto& [name, value] : r.counters)
        std::printf("%-40s   %s = %.6g\n", "", name.c_str(), value);
    }
  }
}

std::string write_bench_json(const std::string& dir, const std::string& name,
                             const obs::Json& doc) {
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') path += '/';
  path += "BENCH_" + name + ".json";
  // Atomic write: `xlp diff` and CI gates read these files, and a run
  // killed mid-write must not leave a truncated baseline behind.
  if (!util::atomic_write_file(path, doc.dump() + "\n")) return {};
  return path;
}

int run_and_report(const RunnerOptions& options,
                   const std::string& profile_path, bool list_only) {
  const std::vector<const BenchSpec*> specs = selected_specs(options.filter);
  if (specs.empty())
    throw Error(ErrorCode::kUsage,
                "--filter '" + options.filter + "' selects no benchmark");
  if (list_only) {
    for (const BenchSpec* spec : specs)
      std::printf("%s/%s %s\n", spec->suite.c_str(), spec->name.c_str(),
                  spec->tags.c_str());
    return 0;
  }

  if (!profile_path.empty()) {
    obs::Profiler::reset();
    obs::Profiler::enable();
  }
  const Runner runner(options);
  const auto reports = runner.run();
  Runner::print(reports);
  if (!profile_path.empty()) {
    obs::Profiler::disable();
    const auto report = obs::Profiler::snapshot();
    if (!util::atomic_write_file(profile_path, report.to_collapsed())) {
      std::fprintf(stderr, "error: cannot write %s\n", profile_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote profile %s\n", profile_path.c_str());
  }
  return 0;
}

}  // namespace xlp::bench
