#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "obs/json.hpp"
#include "util/rng.hpp"

namespace xlp::svc {

/// Where deterministic faults can be injected into the serving stack.
/// Every site is compiled in unconditionally (like the profiler): when the
/// policy is disabled each check costs a single relaxed atomic load, so
/// production binaries carry the machinery for free and a chaos run is the
/// same binary with `xlpd --chaos <spec>` / XLP_CHAOS set.
enum class ChaosSite {
  kCacheFlip = 0,    ///< flip one bit of a cached payload on read
  kCacheTruncate,    ///< truncate a cached payload on read
  kWriteFail,        ///< fail an atomic file write (cache put / outbox)
  kWriteDelay,       ///< delay a file write by a few milliseconds
  kWorkerThrow,      ///< throw from the executing worker thread
  kFrameTruncate,    ///< truncate a socket reply frame mid-write
  kFrameDisconnect,  ///< drop the connection instead of replying
  kQueuePartial,     ///< tear a queue reply file (partial, non-atomic write)
};
inline constexpr int kChaosSiteCount = 8;

/// Deterministic fault-injection policy (docs/service.md, "Failure modes
/// and chaos testing").
///
/// Spec grammar — comma-separated entries, no spaces:
///
///   seed=<u64>           seed of the shared draw stream (default 1)
///   <site>=<prob>        arm `site` with per-check probability in [0, 1]
///   <site>@<n>           fire `site` exactly on its n-th check (1-based,
///                        one-shot; may repeat for several n)
///
///   e.g. "seed=7,cache-flip=0.05,worker-throw=0.02,frame-disconnect@3"
///
/// Site names: cache-flip, cache-truncate, write-fail, write-delay,
/// worker-throw, frame-truncate, frame-disconnect, queue-partial.
///
/// Determinism: all probability draws come from one seeded xoshiro stream
/// consumed under a lock, so a single-threaded driver observes the exact
/// same fire sequence for a given (spec, check order). Multi-threaded
/// servers interleave check order nondeterministically — the chaos test
/// suite therefore asserts *invariants* (every request answered, no
/// corrupt byte served, quarantine exactly accounted), not schedules.
///
/// Thread safety: configure()/disable() may race with should() checks;
/// the enabled flag is the only unlocked state.
class ChaosPolicy {
 public:
  /// Parses and arms `spec` (see grammar above), resetting per-site
  /// counters. Throws xlp::Error(kUsage) on a malformed spec. An empty
  /// spec disables the policy.
  void configure(const std::string& spec);

  /// Disarms every site; should() returns to its one-atomic-load path.
  void disable() noexcept;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The per-site arm check: true when the site fires now. The hot-path
  /// contract: when the policy is disabled this is one relaxed atomic
  /// load and nothing else.
  [[nodiscard]] bool should(ChaosSite site) {
    if (!enabled_.load(std::memory_order_relaxed)) return false;
    return fire(site);
  }

  /// One draw from the policy's seeded stream, for positioning a
  /// corruption (which bit to flip, where to truncate). Deterministic in
  /// draw order under the configured seed.
  [[nodiscard]] std::uint64_t draw();

  /// How many times `site` has fired since configure().
  [[nodiscard]] long injected(ChaosSite site) const;
  [[nodiscard]] long total_injected() const;

  /// {"enabled":bool,"spec":"...","injections":{"cache-flip":n,...},
  ///  "total":n} — spliced into the server's stats snapshot so `xlp top`
  /// and `xlp report` surface a chaos run as such.
  [[nodiscard]] obs::Json to_json() const;

  /// The process-wide policy every injection site checks; configured by
  /// `xlpd --chaos` / XLP_CHAOS and by the chaos test suite.
  [[nodiscard]] static ChaosPolicy& global() noexcept;

 private:
  [[nodiscard]] bool fire(ChaosSite site);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  struct Site {
    double probability = 0.0;
    std::set<long> at;  ///< one-shot triggers by 1-based check index
    long checks = 0;
    long fired = 0;
  };
  Site sites_[kChaosSiteCount];
  Rng rng_{1};
  std::string spec_;
};

/// Flips one bit of `bytes` at a position derived from `draw` (no-op on an
/// empty string). The canonical cache-read corruption.
void chaos_flip_bit(std::string& bytes, std::uint64_t draw) noexcept;

/// Truncates `bytes` to a strictly shorter prefix derived from `draw`
/// (no-op on an empty string).
void chaos_truncate(std::string& bytes, std::uint64_t draw) noexcept;

/// util::atomic_write_file behind the write chaos sites: kWriteDelay
/// sleeps a few deterministic milliseconds first, kWriteFail skips the
/// write and reports failure — exercising every caller's degraded path
/// (memory-only cache, queue retry-next-pass).
[[nodiscard]] bool chaos_write_file(const std::string& path,
                                    const std::string& content);

}  // namespace xlp::svc
