#pragma once

#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/json.hpp"
#include "util/stopwatch.hpp"

namespace xlp::obs {

/// Destination for structured trace events. Instrumented code calls
/// `sink->emit("sim.done", fields)` where `fields` is a JSON object
/// payload; what happens next depends on the sink. An optional sink is a
/// pointer, and nullptr means "no trace": call sites skip building the
/// payload entirely.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const std::string& event, Json fields) = 0;
};

/// Writes one JSON object per event to an ostream (JSONL). Each record is
/// `{"ts": <seconds since sink construction>, "event": <name>, ...payload
/// members...}` followed by a newline. Thread-safe: concurrent emitters
/// serialize on an internal mutex so lines never interleave, and `ts` is
/// monotonic across the file.
class JsonlTraceSink final : public TraceSink {
 public:
  /// The stream must outlive the sink; the sink never owns it.
  explicit JsonlTraceSink(std::ostream& os) : os_(os) {}

  void emit(const std::string& event, Json fields) override;

  [[nodiscard]] long events_written() const;

 private:
  std::ostream& os_;
  Stopwatch clock_;
  mutable std::mutex mutex_;
  long events_ = 0;
};

}  // namespace xlp::obs
