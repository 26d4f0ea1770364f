#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace xlp::svc {

/// The service's wire formats, each encoded and decoded here and nowhere
/// else (docs/service.md): AF_UNIX sockets carrying length-prefixed
/// frames, `xlp-reply/1` replies, `xlp-envelope/1` integrity envelopes
/// and the file queue's directory layout. Every decoder of outside bytes
/// returns a value or throws xlp::Error; tests/fuzz_test.cpp holds them to
/// that under mutated input.

// -------------------------------------------------------- socket transport

/// A connected AF_UNIX stream socket to `path`, or -1.
[[nodiscard]] int connect_unix(const std::string& path);

/// An AF_UNIX stream socket bound to `path` (replacing a stale socket
/// file) and listening, or -1.
[[nodiscard]] int listen_unix(const std::string& path);

/// The largest frame body either end reads or writes. A header announcing
/// more is refused before a byte of it is allocated, so a hostile or
/// confused peer cannot make the other end reserve 4 GiB.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Reads one frame — a 4-byte little-endian body length, then the body —
/// into `out`. False on a transport error, a short body, or a length over
/// kMaxFrameBytes; the connection is unusable afterwards. The body buffer
/// grows with the bytes actually received, never with the announced
/// length alone.
[[nodiscard]] bool read_frame(int fd, std::string& out);

/// Writes `text` as one frame. False on a transport error or when the
/// body exceeds kMaxFrameBytes (nothing is written then). `body_bytes`
/// below text.size() sends the full-length header but only that prefix of
/// the body — the torn reply of the frame-truncate chaos site.
[[nodiscard]] bool write_frame(int fd, const std::string& text,
                               std::size_t body_bytes = std::string::npos);

// ----------------------------------------------------------------- replies

/// Schema identifier of serialized replies.
inline constexpr const char* kReplySchema = "xlp-reply/1";

/// The answer to one request. `payload_text` is the canonical result
/// payload *bytes* (what the cache stores), spliced verbatim into the
/// serialized reply — an executed result and its later cache hits are
/// byte-identical by construction, never re-serialized.
struct Reply {
  std::string request_id;
  bool ok = true;
  /// True when the reply was served without executing: from the persisted
  /// cache, from another request in flight, or as a duplicate within one
  /// batch.
  bool cache_hit = false;
  std::string payload_text;  ///< result JSON, or the error message when !ok
  /// Error taxonomy (!ok only): a reply_error_kind() — "parse",
  /// "schema", "state", ... — or kPoisonedKind.
  std::string error_kind = "internal";
  /// True when resubmitting the identical request can succeed (deadline
  /// stops, injected faults, poisoned executions); false for requests that
  /// are wrong in themselves (parse / schema / usage). Drives the client's
  /// retry loop.
  bool retryable = false;

  /// {"schema":"xlp-reply/1","request_id":...,"cache_hit":...,
  ///  "result":<payload>} — or, instead of "result",
  ///  "error":{"kind":...,"retryable":...,"message":...}.
  [[nodiscard]] std::string to_text() const;
};

/// The documented `kind` of an error reply (docs/service.md), one short
/// name per ErrorCode: usage, io, parse, schema, version, state, internal.
[[nodiscard]] const char* reply_error_kind(ErrorCode code) noexcept;

/// The error kind of a request whose execution escaped with an exception
/// that is not an xlp::Error.
inline constexpr const char* kPoisonedKind = "poisoned";

/// The error reply `error` becomes: its reply_error_kind(), its message
/// without the kind prefix, and retryable for kState (deadline / cancel
/// stops) and kInternal, the errors a resubmission can outlive.
[[nodiscard]] Reply error_reply(const Error& error,
                                std::string request_id = {});

/// Decodes a reply document: one Reply for an object, one per element,
/// in order, for an array. A decoded success carries the result
/// re-serialized in `payload_text`. Throws xlp::Error(kParse) on text
/// that is not JSON and xlp::Error(kSchema) when a member to_text()
/// writes is missing or of the wrong type — a string-shaped `error`
/// included.
[[nodiscard]] std::vector<Reply> decode_replies(const std::string& text);

// --------------------------------------------------------------- envelopes

/// Schema identifier of the integrity envelope every persisted service
/// byte-stream travels in: cache entries, queue submissions and queue
/// replies.
inline constexpr const char* kEnvelopeSchema = "xlp-envelope/1";

/// What unwrap_envelope() found.
enum class EnvelopeStatus {
  kOk,           ///< checksum verified; payload extracted
  kNotEnvelope,  ///< valid JSON, but not an xlp-envelope/1 document
  kCorrupt,      ///< torn, truncated, field-missing or checksum-mismatched
};

/// Wraps `payload` (arbitrary bytes, typically a JSON document) in the
/// integrity envelope:
///
///   {"schema":"xlp-envelope/1","checksum":"<fnv1a64 hex of payload>",
///    "payload":"<payload, JSON-escaped>"}
///
/// The payload travels as a JSON string, so unwrapping returns the exact
/// original bytes — the byte-identity contract of the cache survives the
/// wrapping. FNV-1a 64 is the same content-hash primitive behind request
/// ids; it detects the torn writes, bit rot and truncations the chaos
/// suite injects (it is an integrity check, not an authenticity one).
[[nodiscard]] std::string wrap_envelope(const std::string& payload);

/// Parses `text` and verifies its checksum. On kOk, `payload` receives
/// the original bytes. On kCorrupt, `reason` (when non-null) names what
/// failed ("truncated or not JSON", "missing checksum field", "checksum
/// mismatch", ...). kNotEnvelope means `text` is well-formed JSON of some
/// other shape: only the queue inbox, where hand-written files arrive,
/// accepts such a bare document; every other reader treats it as corrupt.
[[nodiscard]] EnvelopeStatus unwrap_envelope(const std::string& text,
                                             std::string* payload,
                                             std::string* reason = nullptr);

// ------------------------------------------------------------- file queue

/// The file queue's layout under one directory: submissions arrive as
/// `inbox/<name>.json`, replies leave under the same name in `outbox/`,
/// and corrupt submissions are moved to `quarantine/`.
struct QueueDirs {
  explicit QueueDirs(const std::string& queue_dir);

  std::filesystem::path inbox;
  std::filesystem::path outbox;
  std::filesystem::path quarantine;
};

}  // namespace xlp::svc
