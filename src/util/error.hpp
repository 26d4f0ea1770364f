#pragma once

#include <exception>
#include <string>
#include <vector>

namespace xlp {

/// Machine-readable failure category carried by xlp::Error. The CLI maps
/// these onto its documented exit codes (kUsage -> 2, everything else ->
/// 1); library callers can branch without parsing message text.
enum class ErrorCode {
  kUsage,     // bad flags / arguments from the user
  kIo,        // file could not be read, written or renamed
  kParse,     // malformed input (truncated JSON, bad field, bad hex)
  kSchema,    // well-formed input but not the expected document kind
  kVersion,   // recognized document written by a newer format version
  kState,     // operation invalid for the current state
  kInternal,  // a bug in this library
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// Structured error for the toolchain's load/validate paths: an ErrorCode
/// plus a context chain built up as the error propagates. Loaders throw
/// `Error(kParse, "missing field 'rng'")` and callers annotate it on the
/// way out with `with_context("checkpoint ck.json")`, so what() reads
///
///   parse error: missing field 'rng' (while reading sa state; while
///   loading checkpoint ck.json)
///
/// instead of silent garbage or std::abort.
class Error : public std::exception {
 public:
  Error(ErrorCode code, std::string message);

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }
  [[nodiscard]] const std::vector<std::string>& context() const noexcept {
    return context_;
  }
  /// what() without its error_code_name() prefix: the message plus the
  /// context chain.
  [[nodiscard]] std::string detail() const;

  /// Appends one frame to the context chain (innermost first); returns
  /// *this so a catch block can annotate and rethrow in one expression.
  Error& with_context(std::string frame);

  [[nodiscard]] const char* what() const noexcept override {
    return what_.c_str();
  }

 private:
  void rebuild_what();

  ErrorCode code_;
  std::string message_;
  std::vector<std::string> context_;  // innermost first
  std::string what_;
};

}  // namespace xlp
