#include "obs/metrics.hpp"

#include "util/fsio.hpp"

namespace xlp::obs {

bool ensure_parent_dir(const std::string& path) {
  return util::ensure_parent_dir(path);
}

void MetricsRegistry::add(const std::string& name, long delta) {
  counter_handle(name).fetch_add(delta, std::memory_order_relaxed);
}

std::atomic<long>& MetricsRegistry::counter_handle(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.try_emplace(name, 0).first->second;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::record_time(const std::string& name, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TimerStat& stat = timers_[name];
  stat.seconds += seconds;
  ++stat.count;
}

long MetricsRegistry::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second.load(std::memory_order_relaxed);
}

double MetricsRegistry::gauge(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

TimerStat MetricsRegistry::timer(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

Json MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, value] : counters_)
    if (const long count = value.load(std::memory_order_relaxed); count != 0)
      counters.set(name, count);
  Json gauges = Json::object();
  for (const auto& [name, value] : gauges_) gauges.set(name, value);
  Json timers = Json::object();
  for (const auto& [name, stat] : timers_)
    timers.set(name, Json::object()
                         .set("seconds", stat.seconds)
                         .set("count", stat.count));
  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("timers", std::move(timers));
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  return util::atomic_write_file(path, to_json().dump() + "\n");
}

MetricsRegistry& MetricsRegistry::global() noexcept {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace xlp::obs
