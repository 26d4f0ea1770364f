#include "obs/trace.hpp"

#include <ostream>

namespace xlp::obs {

void JsonlTraceSink::emit(const std::string& event, Json fields) {
  Json record = Json::object();
  // ts is read under the lock so it is monotone in file order even when
  // several threads emit concurrently.
  const std::lock_guard<std::mutex> lock(mutex_);
  record.set("ts", clock_.seconds());
  record.set("event", event);
  for (auto& [key, value] : fields.members()) record.set(key, value);
  os_ << record.dump() << '\n';
  ++events_;
}

long JsonlTraceSink::events_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

}  // namespace xlp::obs
