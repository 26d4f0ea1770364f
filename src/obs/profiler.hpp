#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace xlp::obs {

/// One scope of the merged profile, flattened in deterministic preorder
/// (children sorted by name). `path` joins the ancestor chain with ';' so
/// it doubles as a collapsed-stack frame.
struct ProfileEntry {
  std::string path;   // "sa.anneal;sa.evaluate"
  std::string name;   // "sa.evaluate"
  int depth = 0;      // 0 for root scopes
  long hits = 0;
  double inclusive_seconds = 0.0;
  double exclusive_seconds = 0.0;
};

/// Immutable merged snapshot of every thread's scope tree. Produced by
/// Profiler::snapshot(); all exports are deterministic given the same
/// recorded hits (ordering never depends on thread interleaving).
class ProfileReport {
 public:
  explicit ProfileReport(std::vector<ProfileEntry> entries)
      : entries_(std::move(entries)) {}

  [[nodiscard]] const std::vector<ProfileEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Sum of inclusive time over the depth-0 scopes — the wall time the
  /// profile accounts for.
  [[nodiscard]] double root_inclusive_seconds() const noexcept;

  /// Ordered JSON: [{"path","name","depth","hits","inclusive_us",
  /// "exclusive_us"}, ...] in preorder.
  [[nodiscard]] Json to_json() const;

  /// Collapsed-stack text consumable by flamegraph.pl: one
  /// "a;b;c <exclusive microseconds>" line per scope with nonzero
  /// exclusive time (flamegraph.pl wants integer sample counts; 1 sample
  /// == 1 usec).
  [[nodiscard]] std::string to_collapsed() const;

 private:
  std::vector<ProfileEntry> entries_;
};

/// Process-wide hierarchical wall-time profiler. Disabled by default:
/// every ProfileScope then costs a single relaxed atomic load. When
/// enabled, each thread grows a private call tree (no locking on the hot
/// path); snapshot() merges the trees by scope name into a deterministic
/// report. Merge after worker threads have joined — snapshotting while a
/// profiled thread is mid-scope reads a tree that is still moving.
class Profiler {
 public:
  static void enable() noexcept;
  static void disable() noexcept;
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Merged view of every tree recorded since the last reset().
  [[nodiscard]] static ProfileReport snapshot();

  /// Drops all recorded trees (for tests and back-to-back bench runs).
  /// Callers must ensure no ProfileScope is live on any thread.
  static void reset();

 private:
  friend class ProfileScope;
  static std::atomic<bool> enabled_;
};

/// RAII scope: constructor pushes a named node onto the calling thread's
/// tree, destructor pops it and accrues the elapsed wall time. Scope names
/// should be stable literals ("sim.inject"); recursion simply deepens the
/// tree. Free when the profiler is disabled.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) noexcept;
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope();

 private:
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace xlp::obs
