#include "svc/chaos.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fsio.hpp"

namespace xlp::svc {

namespace {

constexpr const char* kSiteNames[kChaosSiteCount] = {
    "cache-flip",     "cache-truncate",  "write-fail",       "write-delay",
    "worker-throw",   "frame-truncate",  "frame-disconnect", "queue-partial"};

[[noreturn]] void bad_spec(const std::string& message) {
  throw Error(ErrorCode::kUsage, "chaos spec: " + message);
}

int site_index(const std::string& name) {
  for (int i = 0; i < kChaosSiteCount; ++i)
    if (name == kSiteNames[i]) return i;
  return -1;
}

}  // namespace

void ChaosPolicy::configure(const std::string& spec) {
  // Parse into a scratch table first so a malformed spec leaves the
  // policy untouched (and disabled sites stay zero-cost).
  Site parsed[kChaosSiteCount];
  std::uint64_t seed = 1;
  bool any = false;

  std::size_t start = 0;
  while (start <= spec.size() && !spec.empty()) {
    const std::size_t comma = spec.find(',', start);
    const std::string entry =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    const std::size_t at = entry.find('@');
    try {
      if (eq != std::string::npos &&
          (at == std::string::npos || eq < at)) {
        const std::string name = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        if (name == "seed") {
          seed = static_cast<std::uint64_t>(std::stoull(value));
          continue;
        }
        const int index = site_index(name);
        if (index < 0) bad_spec("unknown site '" + name + "'");
        const double probability = std::stod(value);
        if (probability < 0.0 || probability > 1.0)
          bad_spec("probability for " + name + " must be in [0, 1]");
        parsed[index].probability = probability;
        any = true;
      } else if (at != std::string::npos) {
        const std::string name = entry.substr(0, at);
        const int index = site_index(name);
        if (index < 0) bad_spec("unknown site '" + name + "'");
        const long nth = std::stol(entry.substr(at + 1));
        if (nth < 1) bad_spec("@n triggers are 1-based: '" + entry + "'");
        parsed[index].at.insert(nth);
        any = true;
      } else {
        bad_spec("entries look like site=prob, site@n or seed=u64: '" +
                 entry + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      bad_spec("non-numeric value in '" + entry + "'");
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (int i = 0; i < kChaosSiteCount; ++i) sites_[i] = parsed[i];
  rng_ = Rng(seed);
  spec_ = spec;
  enabled_.store(any, std::memory_order_relaxed);
}

void ChaosPolicy::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (Site& site : sites_) site = Site{};
  spec_.clear();
}

bool ChaosPolicy::fire(ChaosSite site) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& state = sites_[static_cast<int>(site)];
  ++state.checks;
  bool fires = state.at.erase(state.checks) > 0;
  if (!fires && state.probability > 0.0)
    fires = rng_.bernoulli(state.probability);
  if (fires) ++state.fired;
  return fires;
}

std::uint64_t ChaosPolicy::draw() {
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_();
}

long ChaosPolicy::injected(ChaosSite site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<int>(site)].fired;
}

long ChaosPolicy::total_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  long total = 0;
  for (const Site& site : sites_) total += site.fired;
  return total;
}

obs::Json ChaosPolicy::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::Json injections = obs::Json::object();
  long total = 0;
  for (int i = 0; i < kChaosSiteCount; ++i) {
    if (sites_[i].probability <= 0.0 && sites_[i].at.empty() &&
        sites_[i].fired == 0)
      continue;
    injections.set(kSiteNames[i], sites_[i].fired);
    total += sites_[i].fired;
  }
  return obs::Json::object()
      .set("enabled", enabled_.load(std::memory_order_relaxed))
      .set("spec", spec_)
      .set("injections", std::move(injections))
      .set("total", total);
}

ChaosPolicy& ChaosPolicy::global() noexcept {
  static ChaosPolicy policy;
  return policy;
}

void chaos_flip_bit(std::string& bytes, std::uint64_t draw) noexcept {
  if (bytes.empty()) return;
  const std::size_t position =
      static_cast<std::size_t>(draw % (bytes.size() * 8));
  bytes[position / 8] =
      static_cast<char>(bytes[position / 8] ^ (1 << (position % 8)));
}

void chaos_truncate(std::string& bytes, std::uint64_t draw) noexcept {
  if (bytes.empty()) return;
  bytes.resize(static_cast<std::size_t>(draw % bytes.size()));
}

bool chaos_write_file(const std::string& path, const std::string& content) {
  ChaosPolicy& chaos = ChaosPolicy::global();
  if (chaos.should(ChaosSite::kWriteDelay))
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + static_cast<long>(chaos.draw() % 8)));
  if (chaos.should(ChaosSite::kWriteFail)) return false;
  return util::atomic_write_file(path, content);
}

}  // namespace xlp::svc
