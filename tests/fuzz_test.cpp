// Mutational fuzzing of the decoders of outside bytes: the service's wire
// formats and requests, JSON documents, packet traces and checkpoints;
// ctest label `fuzz`, run under asan-ubsan in CI.
//
// Each target starts from valid samples and applies a seeded stack of
// byte mutations (flip, insert, delete, truncate, turning an integer k into
// 2^32 + k, k + 0.4 or 1e300, and swapping a member's value for one of
// another JSON type) for a fixed number of iterations, so every run
// replays the same inputs. Every input must yield a value or an
// xlp::Error: any other exception fails the test with the offending
// bytes, and a crash or sanitizer report fails the binary. Where a decoder
// has an exact oracle (the frame reader; the reply, request, JSON, trace
// and checkpoint round trips) the value is checked against it too.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "runctl/checkpoint.hpp"
#include "svc/request.hpp"
#include "svc/wire.hpp"
#include "traffic/flows.hpp"
#include "traffic/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xlp::svc {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf022;
constexpr long kIterations = 50000;

/// Bytes that steer mutations toward JSON structure and frame headers.
constexpr char kInteresting[] = "{}[]\":,\\0123456789-.eE \xff";

/// One value of every JSON type, for swapping a member's type.
constexpr const char* kValues[] = {"0",  "-1", "1e999", "true", "null",
                                   "\"\"", "[]", "{}",    "\"x\""};

std::string mutate(std::string bytes, Rng& rng) {
  const auto below = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.uniform_below(bound));
  };
  const std::size_t steps = 1 + below(4);
  for (std::size_t step = 0; step < steps; ++step) {
    switch (below(6)) {
      case 0:  // flip one bit
        if (!bytes.empty())
          bytes[below(bytes.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1: {  // insert one byte
        const char byte = below(2) == 0
                              ? kInteresting[below(sizeof(kInteresting) - 1)]
                              : static_cast<char>(below(256));
        bytes.insert(below(bytes.size() + 1), 1, byte);
        break;
      }
      case 2:  // delete a short span
        if (!bytes.empty()) {
          const std::size_t at = below(bytes.size());
          const std::size_t span = std::min<std::size_t>(8, bytes.size() - at);
          bytes.erase(at, 1 + below(span));
        }
        break;
      case 3:  // truncate
        bytes.resize(below(bytes.size() + 1));
        break;
      case 4: {  // an integer k becomes 2^32 + k, k + 0.4 or 1e300
        constexpr const char* kDigits = "0123456789";
        const std::size_t at =
            bytes.find_first_of(kDigits, below(bytes.size() + 1));
        if (at == std::string::npos) break;
        const std::size_t end =
            std::min(bytes.find_first_not_of(kDigits, at), bytes.size());
        const std::string k = bytes.substr(at, end - at);
        std::string replacement = "1e300";
        if (const std::size_t pick = below(3); pick == 0 && k.size() < 10)
          replacement = std::to_string((1L << 32) + std::stol(k));
        else if (pick == 1)
          replacement = k + ".4";
        bytes.replace(at, end - at, replacement);
        break;
      }
      default: {  // replace the value after a ':' with one of another type
        const std::size_t colon = bytes.find(':', below(bytes.size() + 1));
        if (colon == std::string::npos) break;
        const std::size_t end =
            std::min(bytes.find_first_of(",}]", colon + 1), bytes.size());
        bytes.replace(colon + 1, end - colon - 1,
                      kValues[below(std::size(kValues))]);
        break;
      }
    }
  }
  return bytes;
}

std::string printable(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && byte != '\\') {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

/// Runs `target` on every sample, then on kIterations mutated samples.
/// Returns how many inputs ended in an xlp::Error.
template <typename Target>
long fuzz(const std::vector<std::string>& samples, Target&& target) {
  Rng rng(kSeed);
  long errors = 0;
  for (long i = -static_cast<long>(samples.size()); i < kIterations; ++i) {
    const std::string input =
        i < 0 ? samples[static_cast<std::size_t>(-i - 1)]
              : mutate(samples[static_cast<std::size_t>(
                           rng.uniform_below(samples.size()))],
                       rng);
    try {
      target(input);
    } catch (const Error&) {
      if (i < 0) ADD_FAILURE() << "valid sample rejected: " << printable(input);
      ++errors;
    } catch (const std::exception& escaped) {
      ADD_FAILURE() << "iteration " << i << ": " << escaped.what()
                    << " escaped on input \"" << printable(input) << "\"";
      return errors;
    }
  }
  return errors;
}

std::vector<Request> sample_requests() {
  Request solve;
  solve.kind = RequestKind::kSolve;
  solve.moves = 500;
  Request evaluate;
  evaluate.kind = RequestKind::kEvaluate;
  evaluate.links = "0-2,2-5";
  Request simulate;
  simulate.kind = RequestKind::kSimulate;
  simulate.links = "1-3";
  simulate.vec = true;
  Request sweep;
  sweep.kind = RequestKind::kSweep;
  sweep.moves = 300;
  Request appspec;
  appspec.kind = RequestKind::kAppspec;
  appspec.moves = 300;
  appspec.workload = "canneal";
  Request stats;
  stats.kind = RequestKind::kStats;
  return {solve, evaluate, simulate, sweep, appspec, stats};
}

std::vector<std::string> sample_request_texts() {
  std::vector<std::string> texts;
  for (const Request& request : sample_requests())
    texts.push_back(request.to_json().dump());
  return texts;
}

std::vector<std::string> sample_reply_texts() {
  Reply result;
  result.request_id = "1f0c2a3b4c5d6e7f";
  result.cache_hit = true;
  result.payload_text = R"({"kind":"solve","placement":"0-2","value":12.5})";
  Reply error;
  error.request_id = "0123456789abcdef";
  error.ok = false;
  error.error_kind = "state";
  error.retryable = true;
  error.payload_text = "stopped \"early\"\n";
  return {result.to_text(), error.to_text(),
          "[" + result.to_text() + "," + error.to_text() + "]"};
}

TEST(Fuzz, FrameReaderAcceptsExactlyWellFormedFrames) {
  // A frame as write_frame puts it on the wire.
  const auto encode = [](const std::string& body) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_TRUE(write_frame(fds[0], body));
    ::close(fds[0]);
    std::string bytes;
    char buffer[4096];
    ssize_t got = 0;
    while ((got = ::read(fds[1], buffer, sizeof(buffer))) > 0)
      bytes.append(buffer, static_cast<std::size_t>(got));
    ::close(fds[1]);
    return bytes;
  };
  std::vector<std::string> samples = {encode(""), encode("{}")};
  for (const std::string& text : sample_request_texts())
    samples.push_back(encode(text));

  long accepted = 0;
  (void)fuzz(samples, [&accepted](const std::string& input) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[0], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    ::shutdown(fds[0], SHUT_WR);
    std::string body;
    const bool ok = read_frame(fds[1], body);
    ::close(fds[0]);
    ::close(fds[1]);

    // The oracle: a 4-byte little-endian length within the bound, then at
    // least that many bytes.
    std::size_t length = 0;
    for (std::size_t i = 0; i < 4 && i < input.size(); ++i)
      length |= static_cast<std::size_t>(static_cast<unsigned char>(input[i]))
                << (8 * i);
    const bool well_formed = input.size() >= 4 && length <= kMaxFrameBytes &&
                             input.size() - 4 >= length;
    ASSERT_EQ(ok, well_formed) << printable(input);
    if (ok) {
      EXPECT_EQ(body, input.substr(4, length));
      ++accepted;
    }
  });
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, EnvelopeUnwrapNeverEscapes) {
  std::vector<std::string> samples = {wrap_envelope(""),
                                      wrap_envelope("{\"v\":1}")};
  for (const std::string& text : sample_reply_texts())
    samples.push_back(wrap_envelope(text));
  long verified = 0;
  (void)fuzz(samples, [&verified](const std::string& input) {
    std::string payload;
    std::string reason;
    const EnvelopeStatus status = unwrap_envelope(input, &payload, &reason);
    if (status == EnvelopeStatus::kOk) ++verified;
    if (status == EnvelopeStatus::kCorrupt) {
      EXPECT_FALSE(reason.empty());
    }
  });
  EXPECT_GT(verified, 0);
}

TEST(Fuzz, ReplyDecoderRoundTripsWhatItAccepts) {
  const long errors = fuzz(sample_reply_texts(), [](const std::string& input) {
    for (const Reply& reply : decode_replies(input)) {
      const std::vector<Reply> again = decode_replies(reply.to_text());
      ASSERT_EQ(again.size(), 1u);
      EXPECT_EQ(again[0].to_text(), reply.to_text()) << printable(input);
    }
  });
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, kIterations);
}

TEST(Fuzz, RequestParserRoundTripsWhatItAccepts) {
  const auto parse = [](const std::string& input) {
    const auto doc = obs::Json::parse(input);
    if (!doc) return;
    const Request request = Request::from_json(*doc);
    EXPECT_EQ(Request::from_json(request.to_json()).id(), request.id())
        << printable(input);
    // The construction id() writes directly, as the reference.
    EXPECT_EQ(request.id(),
              obs::fnv1a64_hex(obs::canonical_json(request.to_json())))
        << printable(input);
  };
  const long errors = fuzz(sample_request_texts(), parse);
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, kIterations);
}

TEST(Fuzz, JsonParserRoundTripsWhatItAccepts) {
  // The reader behind `xlp diff` and `xlp report`, seeded with one
  // document of each kind they read or the service writes.
  const std::string bench =
      R"({"schema":"xlp-bench/1","kind":"suite","suite":"svc",)"
      R"("provenance":{"git_sha":"6ace374ba870ec27","compiler":"gcc 12.2.0",)"
      R"("flags":"[Release]","hostname":"vm","seed":0},"options":)"
      R"({"warmup":1,"repeats":5,"deterministic":false},"benchmarks":[)"
      R"({"name":"cache_hit_verify_pair","tags":"smoke","repeats":5,)"
      R"("items":4000,"min_ns":1148.64925,"median_ns":1169.59025,)"
      R"("mean_ns":1198.7496999999998,"metrics":{"lookups_per_sec":)"
      R"(855000.28749384673,"verified_p50_ns":433,"payload_bytes":118}},)"
      R"({"name":"serve_text_hit","tags":"","repeats":5,"items":2000,)"
      R"("min_ns":-1.5e-7,"median_ns":1e21,"mean_ns":0,"metrics":{},)"
      R"("payload":{"rows":["0-2","1-3"],"speedup":null}}]})";
  obs::LedgerEntry entry;
  entry.subcommand = "svc";
  entry.params = sample_requests()[2].to_json();
  entry.seed = 7;
  entry.wall_seconds = 0.125;
  entry.artifacts = {"out/stats.json", "tab\there"};
  entry.cache_hit = 1;
  entry.lifecycle =
      obs::LedgerEntry::Lifecycle{"cache", false, 12.5, 1500, 0, 42000};
  std::vector<std::string> samples = {bench, entry.to_json().dump()};
  for (const std::string& reply : sample_reply_texts())
    samples.push_back(reply);
  samples.push_back(sample_request_texts()[2]);

  const long errors = fuzz(samples, [](const std::string& input) {
    const auto value = obs::Json::parse(input);
    if (!value) throw Error(ErrorCode::kParse, "not JSON");
    const std::string text = value->dump();
    const auto again = obs::Json::parse(text);
    ASSERT_TRUE(again.has_value()) << printable(input);
    EXPECT_EQ(again->dump(), text) << printable(input);
  });
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, kIterations);
}

TEST(Fuzz, TraceLoaderRoundTripsWhatItAccepts) {
  Rng rng(3);
  std::vector<std::string> samples = {
      "xlptrace 8 8 100\n# cycle src dst bits\n0 1 2 128\n5 3 60 64\n",
      "xlptrace 4 2 10\n"};
  for (const int side : {2, 4}) {
    std::ostringstream out;
    traffic::Trace::sample(
        traffic::DemandRows(traffic::Pattern::kTranspose, side, 0.1), 40, rng)
        .save(out);
    samples.push_back(out.str());
  }
  const long errors = fuzz(samples, [](const std::string& input) {
    std::istringstream in(input);
    const traffic::Trace trace = traffic::Trace::load(in);
    // The header bound: each side within the request's n range.
    EXPECT_LE(std::max(trace.width(), trace.height()), 256)
        << printable(input);
    std::stringstream again;
    trace.save(again);
    EXPECT_EQ(traffic::Trace::load(again), trace) << printable(input);
  });
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, kIterations);
}

/// The checkpoint document `file` serializes to (what save_*_checkpoint
/// writes).
std::string checkpoint_text(const runctl::CheckpointFile& file) {
  return obs::Json::object()
      .set("schema", "xlp-ckpt/1")
      .set("kind", file.kind)
      .set("payload", file.sa ? file.sa->to_json() : file.portfolio->to_json())
      .dump();
}

TEST(Fuzz, CheckpointParserRoundTripsWhatItAccepts) {
  runctl::SaCheckpoint sa;
  sa.schedule = {5.0, 4000, 1.2, 400};
  sa.method = "OnlySA";
  sa.n = 8;
  sa.link_limit = 4;
  sa.next_move = 1234;
  sa.cooling_step = 3;
  sa.temperature = 0.625;
  sa.moves = 1233;
  sa.accepted = 700;
  sa.improved = 40;
  sa.rng_state = {1, 0xdeadbeefcafef00dULL, 3, 0xffffffffffffffffULL};
  sa.current =
      topo::ConnectionMatrix::from_string(8, 4, "010000|001100|000000");
  sa.current_value = 13.5;
  sa.best = topo::ConnectionMatrix(8, 4);
  sa.best_value = 12.75;
  runctl::PortfolioCheckpoint portfolio;
  portfolio.n = 8;
  portfolio.link_limit = 4;
  portfolio.chains = 2;
  portfolio.seed = 9;
  portfolio.solver = "dcsa";
  portfolio.schedule = sa.schedule;
  portfolio.chain_states = {sa, std::nullopt};
  runctl::CheckpointFile sa_file{"sa", sa, std::nullopt};
  runctl::CheckpointFile portfolio_file{"portfolio", std::nullopt, portfolio};

  const long errors =
      fuzz({checkpoint_text(sa_file), checkpoint_text(portfolio_file)},
           [](const std::string& input) {
             const std::string text =
                 checkpoint_text(runctl::parse_checkpoint(input));
             std::string again;
             try {
               again = checkpoint_text(runctl::parse_checkpoint(text));
             } catch (const Error& error) {
               ADD_FAILURE() << "accepted " << printable(input)
                             << " but not its own re-serialization: "
                             << error.what();
               return;
             }
             EXPECT_EQ(again, text) << printable(input);
           });
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, kIterations);
}

}  // namespace
}  // namespace xlp::svc
