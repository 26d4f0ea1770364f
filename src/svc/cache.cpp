#include "svc/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <vector>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/chaos.hpp"
#include "svc/envelope.hpp"
#include "util/fsio.hpp"

namespace xlp::svc {

namespace fs = std::filesystem;

namespace {

/// A cache id is exactly what Request::id() produces; anything else in the
/// directory (editor droppings, the metrics dump) is not an entry.
bool looks_like_id(const std::string& stem) {
  if (stem.size() != 16) return false;
  return std::all_of(stem.begin(), stem.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

/// Moves `src` into `<dir>/quarantine/`, suffixing the name when a
/// previous quarantine already claimed it. Returns the destination path
/// (created-but-empty on failure paths is acceptable: quarantine is a
/// forensic convenience, the load-bearing guarantee is that `src` leaves
/// the live cache).
fs::path quarantine_target(const std::string& dir, const std::string& name) {
  const fs::path qdir = fs::path(dir) / "quarantine";
  std::error_code ec;
  fs::create_directories(qdir, ec);
  fs::path target = qdir / name;
  for (int n = 1; fs::exists(target, ec); ++n)
    target = qdir / (name + "." + std::to_string(n));
  return target;
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::size_t max_entries,
                         obs::MetricsRegistry* metrics, bool verify_reads)
    : dir_(std::move(dir)),
      max_entries_(std::max<std::size_t>(1, max_entries)),
      metrics_(metrics != nullptr ? metrics
                                  : &obs::MetricsRegistry::global()),
      cache_hits_(metrics_->counter_handle("svc.cache.hits")),
      cache_misses_(metrics_->counter_handle("svc.cache.misses")),
      cache_evictions_(metrics_->counter_handle("svc.cache.evictions")),
      cache_corrupt_(metrics_->counter_handle("svc.cache.corrupt")),
      verify_reads_(verify_reads) {
  std::error_code ec;
  fs::create_directories(dir_, ec);

  // Rebuild the index from disk, oldest first so the LRU order roughly
  // reflects the previous process's write order (ties broken by name for
  // determinism on coarse-mtime filesystems).
  struct Found {
    fs::file_time_type mtime;
    std::string name;
    std::string path;
    bool is_file;
  };
  std::vector<Found> found;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() != ".json" ||
        !looks_like_id(path.stem().string()))
      continue;
    found.push_back({entry.last_write_time(ec), path.stem().string(),
                     path.string(), entry.is_regular_file(ec)});
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });

  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& file : found) {
    if (!file.is_file) {
      // A directory (or socket, ...) squatting on an entry name can never
      // be a valid entry: quarantine it wholesale.
      quarantine_locked(file.name, "");
      continue;
    }
    const auto bytes = util::read_file(file.path);
    if (!bytes) {
      quarantine_locked(file.name, "");
      continue;
    }
    std::string payload;
    switch (unwrap_envelope(*bytes, &payload)) {
      case EnvelopeStatus::kOk:
        break;
      case EnvelopeStatus::kNotEnvelope:
        // Pre-envelope entries were the bare payload JSON; accept them so
        // an upgrade does not cold-start the cache. They are rewritten in
        // envelope form on their next put().
        if (!obs::Json::parse(*bytes)) {
          quarantine_locked(file.name, "");
          continue;
        }
        payload = *bytes;
        break;
      case EnvelopeStatus::kCorrupt:
        quarantine_locked(file.name, "");
        continue;
    }
    lru_.push_front(file.name);
    entries_[file.name] =
        Entry{payload, obs::fnv1a64_hex(payload), lru_.begin()};
    evict_if_needed_locked();
  }
  metrics_->set_gauge("svc.cache.entries",
                      static_cast<double>(entries_.size()));
}

std::optional<std::string> ResultCache::get(const std::string& id,
                                            bool* corrupted) {
  if (corrupted != nullptr) *corrupted = false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::string payload = it->second.payload;
  ChaosPolicy& chaos = ChaosPolicy::global();
  if (chaos.should(ChaosSite::kCacheFlip))
    chaos_flip_bit(payload, chaos.draw());
  if (chaos.should(ChaosSite::kCacheTruncate))
    chaos_truncate(payload, chaos.draw());
  if (verify_reads_ && obs::fnv1a64_hex(payload) != it->second.checksum) {
    // Never serve a byte that fails verification: quarantine the entry and
    // report a miss so the caller recomputes.
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    quarantine_locked(id, payload);
    metrics_->set_gauge("svc.cache.entries",
                        static_cast<double>(entries_.size()));
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    if (corrupted != nullptr) *corrupted = true;
    return std::nullopt;
  }
  touch_locked(id);
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return payload;
}

bool ResultCache::contains(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(id) != entries_.end();
}

bool ResultCache::put(const std::string& id, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  if (it != entries_.end()) {
    it->second.payload = payload;
    it->second.checksum = obs::fnv1a64_hex(payload);
    touch_locked(id);
  } else {
    lru_.push_front(id);
    entries_[id] = Entry{payload, obs::fnv1a64_hex(payload), lru_.begin()};
    evict_if_needed_locked();
    metrics_->set_gauge("svc.cache.entries",
                        static_cast<double>(entries_.size()));
  }
  return chaos_write_file((fs::path(dir_) / (id + ".json")).string(),
                          wrap_envelope(payload));
}

std::size_t ResultCache::size() {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ResultCache::evict_if_needed_locked() {
  while (entries_.size() > max_entries_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    std::error_code ec;
    fs::remove(fs::path(dir_) / (victim + ".json"), ec);
    cache_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::touch_locked(const std::string& id) {
  auto& entry = entries_.at(id);
  lru_.erase(entry.lru_pos);
  lru_.push_front(id);
  entry.lru_pos = lru_.begin();
}

void ResultCache::quarantine_locked(const std::string& name,
                                    const std::string& corrupt_bytes) {
  const std::string file = name + ".json";
  const fs::path src = fs::path(dir_) / file;
  const fs::path target = quarantine_target(dir_, file);
  std::error_code ec;
  if (fs::exists(src, ec)) {
    fs::rename(src, target, ec);
    if (ec) {
      // Cross-device or permission trouble: removing the live file is the
      // part that matters; preserve the bytes we have for forensics.
      fs::remove_all(src, ec);
      (void)util::atomic_write_file(target.string(), corrupt_bytes);
    }
  } else {
    // Memory-only entry (its put() failed): there is no file to move, so
    // write the corrupt bytes themselves — every svc.cache.corrupt
    // increment leaves exactly one quarantine file.
    (void)util::atomic_write_file(target.string(), corrupt_bytes);
  }
  cache_corrupt_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xlp::svc
