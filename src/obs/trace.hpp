#pragma once

#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/json.hpp"
#include "util/stopwatch.hpp"

namespace xlp::obs {

/// Destination for structured trace events. Instrumented code calls
/// `sink.emit("sim.done", fields)` where `fields` is a JSON object payload;
/// what happens next depends on the sink. Call sites that would pay to
/// build the payload should guard on `enabled()` so the default null sink
/// makes instrumentation cost ~nothing.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const std::string& event, Json fields) = 0;
  [[nodiscard]] virtual bool enabled() const noexcept { return true; }
};

/// Swallows every event; `enabled()` is false so call sites skip building
/// payloads entirely.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const std::string&, Json) override {}
  [[nodiscard]] bool enabled() const noexcept override { return false; }
};

/// The process-wide null sink, usable as a default for optional sink
/// parameters.
[[nodiscard]] TraceSink& null_trace_sink() noexcept;

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
