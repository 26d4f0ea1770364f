#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace xlp::obs {

/// Named monotonic counters, thread-safe, so parallel SA chains and
/// sharded workers can share a registry. Counters are atomics in a
/// node-stable map: one internal mutex guards registration and snapshots,
/// while a per-request hot path resolves its counters once through
/// counter_handle() and bumps them lock-free. Wall time is the profiler's
/// job (obs::ProfileScope), not the registry's. Instrumented library code
/// records into global() by default; tests and embedders can construct
/// private registries and inject them instead.
class MetricsRegistry {
 public:
  /// Adds `delta` to the named monotonic counter (created at 0 on first
  /// touch).
  void add(const std::string& name, long delta = 1);
  /// The named counter itself (created at 0 on first use), valid for the
  /// registry's lifetime: resolve it once, then bump it with relaxed
  /// fetch_add instead of a lookup per increment.
  [[nodiscard]] std::atomic<long>& counter_handle(const std::string& name);

  [[nodiscard]] long counter(const std::string& name) const;

  /// Serializes the whole registry as {"counters": {name: value, ...}}.
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
};

}  // namespace xlp::obs
