#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace xlp::obs {
class MetricsRegistry;
}

namespace xlp::svc {

/// Content-addressed, persisted result cache: payload bytes keyed by the
/// request's content hash (Request::id()).
///
/// Layout on disk is one file per entry, `<dir>/<id>.json`, holding the
/// payload wrapped in the xlp-envelope/1 integrity envelope (an FNV-1a
/// checksum over the exact payload bytes). Files are written through
/// util::atomic_write_file — a crash or kill mid-put leaves either no file
/// or a complete one — and the checksum catches what atomicity cannot:
/// bit rot, truncation by other tools, or hand-edited entries. The
/// constructor rescans the directory (oldest first by mtime, ties by name)
/// and rebuilds the in-memory index, which is how hits survive a
/// kill-and-restart.
///
/// Corruption is never served and never fatal: a file (or in-memory
/// payload, under chaos injection) that fails verification is moved to
/// `<dir>/quarantine/`, counted in the svc.cache.corrupt metric, and the
/// lookup reports a miss so the request transparently re-executes. When
/// the corrupt entry has no disk file (a memory-only entry after a failed
/// put), the corrupt bytes themselves are written into quarantine so every
/// svc.cache.corrupt increment has a matching quarantine file to inspect.
///
/// The in-memory index holds the payload bytes too (service payloads are
/// small JSON documents), bounded by an LRU of `max_entries`: inserting
/// past the bound evicts the least-recently-used entry from memory *and*
/// disk. All operations are thread-safe (one internal mutex) — pool
/// workers share one cache. The mutex guards memory only: put() writes
/// its file with the lock released, so a hit never waits on a fsync.
///
/// Metrics (svc.cache.hits / misses / evictions / corrupt counters) are
/// recorded into the registry passed at construction,
/// obs::MetricsRegistry::global() by default; the counters are resolved
/// once there, so a lookup bumps them without a name search. size()
/// reports the live entry count.
class ResultCache {
 public:
  /// `verify_reads` re-checks the stored checksum on every get(); the cost
  /// is one FNV pass over a small payload (pinned by the cache_hit_verify
  /// bench pair) and it is what turns an injected corruption into a
  /// quarantine-and-recompute instead of a wrong byte served.
  explicit ResultCache(std::string dir, std::size_t max_entries = 4096,
                       obs::MetricsRegistry* metrics = nullptr,
                       bool verify_reads = true);

  /// The payload stored for `id`, refreshing its recency; nullopt on miss.
  /// A corrupt entry (checksum mismatch) is quarantined and reported as a
  /// miss; `corrupted`, when non-null, is set true in that case so callers
  /// can attribute the re-execution.
  [[nodiscard]] std::optional<std::string> get(const std::string& id,
                                               bool* corrupted = nullptr);

  /// True without touching recency or hit/miss counters; for cheap probes.
  [[nodiscard]] bool contains(const std::string& id);

  /// Inserts (or refreshes) an entry and persists it (envelope-wrapped).
  /// The entry is visible to get() before its file is durable. Returns
  /// false when the file write failed — the entry is still served from
  /// memory, so a read-only cache dir degrades to a memory-only cache
  /// instead of failing requests.
  bool put(const std::string& id, const std::string& payload);

  [[nodiscard]] std::size_t size();
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  struct Entry;
  void evict_if_needed_locked();
  /// Makes `entry` the most recently used.
  void touch_locked(Entry& entry);
  void quarantine_locked(const std::string& name,
                         const std::string& corrupt_bytes);

  std::string dir_;
  std::size_t max_entries_;
  obs::MetricsRegistry* metrics_;
  std::atomic<long>& cache_hits_;
  std::atomic<long>& cache_misses_;
  std::atomic<long>& cache_evictions_;
  std::atomic<long>& cache_corrupt_;
  bool verify_reads_;

  std::mutex mutex_;
  /// Most-recently-used at the front.
  std::list<std::string> lru_;
  struct Entry {
    std::string payload;
    std::string checksum;  ///< fnv1a64_hex(payload), fixed at insert
    std::list<std::string>::iterator lru_pos;
  };
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace xlp::svc
