#include "svc/wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace xlp::svc {

namespace {

bool read_exact(int fd, char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t got = ::read(fd, data, bytes);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    data += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_exact(int fd, const char* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t put = ::write(fd, data, bytes);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    data += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return true;
}

/// An AF_UNIX stream socket with `address` set to `path`; -1 when the
/// path does not fit sun_path.
int unix_socket(const std::string& path, sockaddr_un& address) {
  address = sockaddr_un{};
  if (path.size() >= sizeof(address.sun_path)) return -1;
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return ::socket(AF_UNIX, SOCK_STREAM, 0);
}

}  // namespace

int connect_unix(const std::string& path) {
  sockaddr_un address;
  const int fd = unix_socket(path, address);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un address;
  const int fd = unix_socket(path, address);
  if (fd < 0) return -1;
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool read_frame(int fd, std::string& out) {
  unsigned char header[4];
  if (!read_exact(fd, reinterpret_cast<char*>(header), 4)) return false;
  const std::size_t length = static_cast<std::size_t>(header[0]) |
                             (static_cast<std::size_t>(header[1]) << 8) |
                             (static_cast<std::size_t>(header[2]) << 16) |
                             (static_cast<std::size_t>(header[3]) << 24);
  if (length > kMaxFrameBytes) return false;
  // Grow with what arrives: a peer that announces megabytes and sends a
  // few bytes costs a few bytes.
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  out.clear();
  while (out.size() < length) {
    const std::size_t have = out.size();
    out.resize(have + std::min(kChunk, length - have));
    if (!read_exact(fd, out.data() + have, out.size() - have)) return false;
  }
  return true;
}

bool write_frame(int fd, const std::string& text, std::size_t body_bytes) {
  if (text.size() > kMaxFrameBytes) return false;
  const auto length = static_cast<std::uint32_t>(text.size());
  const char header[4] = {static_cast<char>(length & 0xff),
                          static_cast<char>((length >> 8) & 0xff),
                          static_cast<char>((length >> 16) & 0xff),
                          static_cast<char>((length >> 24) & 0xff)};
  return write_exact(fd, header, 4) &&
         write_exact(fd, text.data(), std::min(body_bytes, text.size()));
}

const char* reply_error_kind(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kUsage: return "usage";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kSchema: return "schema";
    case ErrorCode::kVersion: return "version";
    case ErrorCode::kState: return "state";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

Reply error_reply(const Error& error, std::string request_id) {
  Reply reply;
  reply.request_id = std::move(request_id);
  reply.ok = false;
  reply.payload_text = error.detail();
  reply.error_kind = reply_error_kind(error.code());
  reply.retryable = error.code() == ErrorCode::kState ||
                    error.code() == ErrorCode::kInternal;
  return reply;
}

std::string Reply::to_text() const {
  std::string out;
  out.reserve(payload_text.size() + 96);
  out += "{\"schema\":\"";
  out += kReplySchema;
  out += "\",\"request_id\":\"";
  obs::append_json_escaped(out, request_id);
  out += "\",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  if (ok) {
    out += ",\"result\":";
    out += payload_text;  // canonical payload bytes, spliced verbatim
  } else {
    out += ",\"error\":{\"kind\":\"";
    obs::append_json_escaped(out, error_kind);
    out += "\",\"retryable\":";
    out += retryable ? "true" : "false";
    out += ",\"message\":\"";
    obs::append_json_escaped(out, payload_text);
    out += "\"}";
  }
  out += "}";
  return out;
}

namespace {

[[noreturn]] void bad_reply(const std::string& what) {
  throw Error(ErrorCode::kSchema, "reply " + what);
}

const obs::Json& member(const obs::Json& doc, const char* key,
                        obs::Json::Type type) {
  const obs::Json* value = doc.find(key);
  if (value == nullptr || value->type() != type)
    bad_reply(std::string("member '") + key + "' is missing or mistyped");
  return *value;
}

Reply decode_reply(const obs::Json& doc) {
  using Type = obs::Json::Type;
  if (!doc.is_object()) bad_reply("is not an object");
  if (member(doc, "schema", Type::kString).as_string() != kReplySchema)
    bad_reply(std::string("schema is not ") + kReplySchema);
  Reply reply;
  reply.request_id = member(doc, "request_id", Type::kString).as_string();
  reply.cache_hit = member(doc, "cache_hit", Type::kBool).as_bool();
  if (const obs::Json* result = doc.find("result")) {
    reply.payload_text = result->dump();
    return reply;
  }
  const obs::Json& error = member(doc, "error", Type::kObject);
  reply.ok = false;
  reply.error_kind = member(error, "kind", Type::kString).as_string();
  reply.retryable = member(error, "retryable", Type::kBool).as_bool();
  reply.payload_text = member(error, "message", Type::kString).as_string();
  return reply;
}

}  // namespace

std::vector<Reply> decode_replies(const std::string& text) {
  const auto doc = obs::Json::parse(text);
  if (!doc) throw Error(ErrorCode::kParse, "reply is not valid JSON");
  std::vector<Reply> replies;
  if (!doc->is_array()) {
    replies.push_back(decode_reply(*doc));
    return replies;
  }
  for (std::size_t i = 0; i < doc->size(); ++i)
    replies.push_back(decode_reply(doc->at(i)));
  return replies;
}

std::string wrap_envelope(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 96);
  out += "{\"schema\":\"";
  out += kEnvelopeSchema;
  out += "\",\"checksum\":\"";
  out += obs::fnv1a64_hex(payload);
  out += "\",\"payload\":\"";
  obs::append_json_escaped(out, payload);
  out += "\"}";
  return out;
}

EnvelopeStatus unwrap_envelope(const std::string& text, std::string* payload,
                               std::string* reason) {
  const auto fail = [reason](const char* why) {
    if (reason != nullptr) *reason = why;
    return EnvelopeStatus::kCorrupt;
  };
  if (text.empty()) return fail("empty file");
  const auto doc = obs::Json::parse(text);
  if (!doc) return fail("truncated or not JSON");
  if (!doc->is_object()) return EnvelopeStatus::kNotEnvelope;
  const obs::Json* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kEnvelopeSchema)
    return EnvelopeStatus::kNotEnvelope;
  const obs::Json* checksum = doc->find("checksum");
  if (checksum == nullptr || !checksum->is_string())
    return fail("missing checksum field");
  const obs::Json* body = doc->find("payload");
  if (body == nullptr || !body->is_string())
    return fail("missing payload field");
  if (obs::fnv1a64_hex(body->as_string()) != checksum->as_string())
    return fail("checksum mismatch");
  if (payload != nullptr) *payload = body->as_string();
  return EnvelopeStatus::kOk;
}

QueueDirs::QueueDirs(const std::string& queue_dir)
    : inbox(std::filesystem::path(queue_dir) / "inbox"),
      outbox(std::filesystem::path(queue_dir) / "outbox"),
      quarantine(std::filesystem::path(queue_dir) / "quarantine") {}

}  // namespace xlp::svc
