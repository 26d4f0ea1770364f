#include "runctl/checkpoint.hpp"

#include <cmath>
#include <cstdio>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace xlp::runctl {
namespace {

constexpr const char* kSchemaTag = "xlp-ckpt/1";
constexpr const char* kSchemaPrefix = "xlp-ckpt/";

std::string hex_word(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// RNG words do not fit in a double (Json's only number type), so they are
// serialized as 16-digit hex strings and decoded by hand here.
std::uint64_t parse_hex_word(const std::string& text) {
  if (text.empty() || text.size() > 16)
    throw Error(ErrorCode::kParse, "bad hex word '" + text + "'");
  std::uint64_t value = 0;
  for (const char ch : text) {
    int digit;
    if (ch >= '0' && ch <= '9')
      digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f')
      digit = ch - 'a' + 10;
    else if (ch >= 'A' && ch <= 'F')
      digit = ch - 'A' + 10;
    else
      throw Error(ErrorCode::kParse, "bad hex word '" + text + "'");
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

const obs::Json& field(const obs::Json& obj, const char* key) {
  if (!obj.is_object())
    throw Error(ErrorCode::kParse, "expected a JSON object");
  const obs::Json* f = obj.find(key);
  if (f == nullptr)
    throw Error(ErrorCode::kParse,
                std::string("missing field '") + key + "'");
  return *f;
}

// Non-finite numbers are rejected too: a checkpoint never holds one, and
// to_json() could not write it back (JSON has no inf).
double number_field(const obs::Json& obj, const char* key) {
  const obs::Json& f = field(obj, key);
  if (!f.is_number() || !std::isfinite(f.as_number()))
    throw Error(ErrorCode::kParse,
                std::string("field '") + key + "' must be a finite number");
  return f.as_number();
}

// Integer fields are exact: a fraction, or a value outside the range of
// the C++ type the field is read into, is a parse error — never rounded,
// truncated or wrapped.
[[noreturn]] void not_an_integer(const char* key) {
  throw Error(ErrorCode::kParse, std::string("field '") + key +
                                     "' must be an integer within range");
}

long long_field(const obs::Json& obj, const char* key) {
  const obs::Json& f = field(obj, key);
  try {
    return f.as_long();
  } catch (const PreconditionError&) {
    not_an_integer(key);
  }
}

int int_field(const obs::Json& obj, const char* key) {
  const obs::Json& f = field(obj, key);
  try {
    return f.as_int();
  } catch (const PreconditionError&) {
    not_an_integer(key);
  }
}

const std::string& string_field(const obs::Json& obj, const char* key) {
  const obs::Json& f = field(obj, key);
  if (!f.is_string())
    throw Error(ErrorCode::kParse,
                std::string("field '") + key + "' must be a string");
  return f.as_string();
}

bool bool_field(const obs::Json& obj, const char* key) {
  const obs::Json& f = field(obj, key);
  if (f.type() != obs::Json::Type::kBool)
    throw Error(ErrorCode::kParse,
                std::string("field '") + key + "' must be a boolean");
  return f.as_bool();
}

obs::Json schedule_to_json(const SaSchedule& s) {
  obs::Json j = obs::Json::object();
  j.set("initial_temperature", s.initial_temperature)
      .set("total_moves", s.total_moves)
      .set("cool_scale", s.cool_scale)
      .set("moves_per_cool", s.moves_per_cool);
  return j;
}

SaSchedule schedule_from_json(const obs::Json& j) {
  SaSchedule s;
  s.initial_temperature = number_field(j, "initial_temperature");
  s.total_moves = long_field(j, "total_moves");
  s.cool_scale = number_field(j, "cool_scale");
  s.moves_per_cool = long_field(j, "moves_per_cool");
  return s;
}

obs::Json matrix_to_json(const topo::ConnectionMatrix& m, double value) {
  obs::Json j = obs::Json::object();
  j.set("matrix", m.to_string()).set("value", value);
  return j;
}

topo::ConnectionMatrix matrix_from_json(const obs::Json& j, int n,
                                        int link_limit) {
  const std::string& text = string_field(j, "matrix");
  try {
    return topo::ConnectionMatrix::from_string(n, link_limit, text);
  } catch (const PreconditionError& pe) {
    throw Error(ErrorCode::kParse, pe.what());
  }
}

obs::Json envelope(const char* kind, obs::Json payload) {
  obs::Json j = obs::Json::object();
  j.set("schema", kSchemaTag).set("kind", kind).set("payload",
                                                    std::move(payload));
  return j;
}

void save_envelope(const std::string& path, obs::Json document) {
  if (!util::atomic_write_file(path, document.dump() + "\n")) {
    throw Error(ErrorCode::kIo, "cannot write file")
        .with_context("saving checkpoint " + path);
  }
}

}  // namespace

obs::Json SaCheckpoint::to_json() const {
  obs::Json rng = obs::Json::array();
  for (const std::uint64_t word : rng_state) rng.push(hex_word(word));

  obs::Json j = obs::Json::object();
  j.set("schedule", schedule_to_json(schedule))
      .set("method", method)
      .set("n", n)
      .set("link_limit", link_limit)
      .set("next_move", next_move)
      .set("cooling_step", cooling_step)
      .set("temperature", temperature)
      .set("window_start_move", window_start_move)
      .set("window_start_accepted", window_start_accepted)
      .set("moves", moves)
      .set("accepted", accepted)
      .set("improved", improved)
      .set("rng", std::move(rng))
      .set("current", matrix_to_json(current, current_value))
      .set("best", matrix_to_json(best, best_value))
      .set("complete", complete);
  return j;
}

SaCheckpoint SaCheckpoint::from_json(const obs::Json& json) {
  SaCheckpoint c;
  c.schedule = schedule_from_json(field(json, "schedule"));
  c.method = string_field(json, "method");
  c.n = int_field(json, "n");
  c.link_limit = int_field(json, "link_limit");
  if (c.n < 2 || c.link_limit < 1)
    throw Error(ErrorCode::kParse, "invalid problem size in checkpoint");

  c.next_move = long_field(json, "next_move");
  c.cooling_step = long_field(json, "cooling_step");
  c.temperature = number_field(json, "temperature");
  c.window_start_move = long_field(json, "window_start_move");
  c.window_start_accepted = long_field(json, "window_start_accepted");
  c.moves = long_field(json, "moves");
  c.accepted = long_field(json, "accepted");
  c.improved = long_field(json, "improved");

  const obs::Json& rng = field(json, "rng");
  if (!rng.is_array() || rng.size() != c.rng_state.size())
    throw Error(ErrorCode::kParse, "field 'rng' must be an array of 4 words");
  for (std::size_t i = 0; i < c.rng_state.size(); ++i) {
    const obs::Json& word = rng.at(i);
    if (!word.is_string())
      throw Error(ErrorCode::kParse, "rng words must be hex strings");
    c.rng_state[i] = parse_hex_word(word.as_string());
  }

  const obs::Json& current = field(json, "current");
  c.current = matrix_from_json(current, c.n, c.link_limit);
  c.current_value = number_field(current, "value");
  const obs::Json& best = field(json, "best");
  c.best = matrix_from_json(best, c.n, c.link_limit);
  c.best_value = number_field(best, "value");
  c.complete = bool_field(json, "complete");
  return c;
}

obs::Json PortfolioCheckpoint::to_json() const {
  obs::Json states = obs::Json::array();
  for (const std::optional<SaCheckpoint>& state : chain_states)
    states.push(state ? state->to_json() : obs::Json());

  obs::Json j = obs::Json::object();
  j.set("n", n)
      .set("link_limit", link_limit)
      .set("chains", chains)
      .set("seed", hex_word(seed))
      .set("solver", solver)
      .set("schedule", schedule_to_json(schedule))
      .set("chain_states", std::move(states));
  return j;
}

PortfolioCheckpoint PortfolioCheckpoint::from_json(const obs::Json& json) {
  PortfolioCheckpoint p;
  p.n = int_field(json, "n");
  p.link_limit = int_field(json, "link_limit");
  p.chains = int_field(json, "chains");
  if (p.n < 2 || p.link_limit < 1 || p.chains < 1)
    throw Error(ErrorCode::kParse, "invalid portfolio shape in checkpoint");
  p.seed = parse_hex_word(string_field(json, "seed"));
  p.solver = string_field(json, "solver");
  p.schedule = schedule_from_json(field(json, "schedule"));

  const obs::Json& states = field(json, "chain_states");
  if (!states.is_array() || states.size() != static_cast<std::size_t>(p.chains))
    throw Error(ErrorCode::kParse,
                "field 'chain_states' must list one entry per chain");
  for (std::size_t i = 0; i < states.size(); ++i) {
    const obs::Json& state = states.at(i);
    if (state.is_null()) {
      p.chain_states.emplace_back(std::nullopt);
    } else {
      try {
        p.chain_states.emplace_back(SaCheckpoint::from_json(state));
      } catch (Error& e) {
        e.with_context("chain " + std::to_string(i));
        throw;
      }
    }
  }
  return p;
}

void save_sa_checkpoint(const std::string& path, const SaCheckpoint& ckpt) {
  save_envelope(path, envelope("sa", ckpt.to_json()));
}

std::function<void(const SaCheckpoint&)> sa_checkpoint_file_sink(
    std::string path) {
  if (path.empty()) return {};
  return [path = std::move(path)](const SaCheckpoint& ckpt) {
    try {
      save_sa_checkpoint(path, ckpt);
    } catch (const Error& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  };
}

void save_portfolio_checkpoint(const std::string& path,
                               const PortfolioCheckpoint& ckpt) {
  save_envelope(path, envelope("portfolio", ckpt.to_json()));
}

CheckpointFile parse_checkpoint(const std::string& text) {
  std::size_t error_offset = 0;
  const std::optional<obs::Json> doc = obs::Json::parse(text, &error_offset);
  if (!doc)
    throw Error(ErrorCode::kParse, "JSON syntax error at character " +
                                       std::to_string(error_offset));
  if (!doc->is_object())
    throw Error(ErrorCode::kSchema, "checkpoint must be a JSON object");

  const obs::Json* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string())
    throw Error(ErrorCode::kSchema,
                "missing 'schema' marker — not an xlp checkpoint");
  const std::string& tag = schema->as_string();
  if (tag.rfind(kSchemaPrefix, 0) != 0)
    throw Error(ErrorCode::kSchema,
                "schema '" + tag + "' is not an xlp checkpoint");
  if (tag != kSchemaTag)
    throw Error(ErrorCode::kVersion,
                "checkpoint format '" + tag +
                    "' is not supported by this build (expected " +
                    kSchemaTag + ")");

  CheckpointFile file;
  file.kind = string_field(*doc, "kind");
  // Reject an unknown kind before reaching into the payload, so a
  // foreign-but-envelope-shaped file reads as a schema problem, not a
  // parse error inside a payload we had no business interpreting.
  if (file.kind != "sa" && file.kind != "portfolio")
    throw Error(ErrorCode::kSchema,
                "unknown checkpoint kind '" + file.kind + "'");
  const obs::Json& payload = field(*doc, "payload");
  if (file.kind == "sa") {
    file.sa = SaCheckpoint::from_json(payload);
  } else {
    file.portfolio = PortfolioCheckpoint::from_json(payload);
  }
  return file;
}

CheckpointFile load_checkpoint_file(const std::string& path) {
  try {
    const std::optional<std::string> text = util::read_file(path);
    if (!text) throw Error(ErrorCode::kIo, "cannot read file");
    return parse_checkpoint(*text);
  } catch (Error& e) {
    e.with_context("loading checkpoint " + path);
    throw;
  }
}

}  // namespace xlp::runctl
