#include "obs/metrics.hpp"

#include "util/fsio.hpp"

namespace xlp::obs {

void MetricsRegistry::add(const std::string& name, long delta) {
  counter_handle(name).fetch_add(delta, std::memory_order_relaxed);
}

std::atomic<long>& MetricsRegistry::counter_handle(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.try_emplace(name, 0).first->second;
}

long MetricsRegistry::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second.load(std::memory_order_relaxed);
}

Json MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, value] : counters_)
    if (const long count = value.load(std::memory_order_relaxed); count != 0)
      counters.set(name, count);
  return Json::object().set("counters", std::move(counters));
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  return util::atomic_write_file(path, to_json().dump() + "\n");
}

MetricsRegistry& MetricsRegistry::global() noexcept {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace xlp::obs
