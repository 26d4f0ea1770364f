#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "util/stopwatch.hpp"

namespace xlp::obs {

/// Creates any missing parent directories of `path` so a subsequent open
/// for writing can succeed (no-op when the path has no directory
/// component). Returns false, without throwing, when creation failed —
/// shared by every best-effort telemetry writer.
bool ensure_parent_dir(const std::string& path);

/// Accumulated wall-time statistic for one named timer.
struct TimerStat {
  double seconds = 0.0;
  long count = 0;
  [[nodiscard]] double mean_seconds() const noexcept {
    return count > 0 ? seconds / count : 0.0;
  }
};

/// Named counters, gauges and timers, all thread-safe, so parallel SA
/// chains and sharded workers can share a registry. Counters are atomics
/// in a node-stable map: one internal mutex guards registration, gauges,
/// timers and snapshots, while a per-request hot path resolves its
/// counters once through counter_handle() and bumps them lock-free.
/// Instrumented library code records into global() by default; tests and
/// embedders can construct private registries and inject them instead.
class MetricsRegistry {
 public:
  /// Adds `delta` to the named monotonic counter (created at 0 on first
  /// touch).
  void add(const std::string& name, long delta = 1);
  /// The named counter itself (created at 0 on first use), valid for the
  /// registry's lifetime: resolve it once, then bump it with relaxed
  /// fetch_add instead of a lookup per increment.
  [[nodiscard]] std::atomic<long>& counter_handle(const std::string& name);
  /// Sets the named gauge to the latest value.
  void set_gauge(const std::string& name, double value);
  /// Accumulates one wall-time sample into the named timer.
  void record_time(const std::string& name, double seconds);

  [[nodiscard]] long counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] TimerStat timer(const std::string& name) const;

  /// Serializes the whole registry:
  ///   {"counters": {...}, "gauges": {...},
  ///    "timers": {name: {"seconds": s, "count": n}, ...}}
  /// Counters still at 0 are left out, so a counter resolved up front
  /// appears only once something has counted.
  [[nodiscard]] Json to_json() const;

  /// Writes to_json() to a file; returns false (without throwing) when the
  /// file cannot be opened — telemetry output is best-effort.
  [[nodiscard]] bool write_json_file(const std::string& path) const;

  /// The process-wide registry used by default instrumentation.
  [[nodiscard]] static MetricsRegistry& global() noexcept;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::atomic<long>> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, TimerStat> timers_;
};

/// RAII wall-clock timer: records the elapsed time into `registry` under
/// `name` when the scope exits.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { registry_.record_time(name_, watch_.seconds()); }

 private:
  MetricsRegistry& registry_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace xlp::obs
