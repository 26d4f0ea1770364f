#include "util/error.hpp"

#include <utility>

namespace xlp {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kUsage: return "usage error";
    case ErrorCode::kIo: return "i/o error";
    case ErrorCode::kParse: return "parse error";
    case ErrorCode::kSchema: return "schema error";
    case ErrorCode::kVersion: return "version error";
    case ErrorCode::kState: return "state error";
    case ErrorCode::kInternal: return "internal error";
  }
  return "error";
}

Error::Error(ErrorCode code, std::string message)
    : code_(code), message_(std::move(message)) {
  rebuild_what();
}

Error& Error::with_context(std::string frame) {
  context_.push_back(std::move(frame));
  rebuild_what();
  return *this;
}

std::string Error::detail() const {
  std::string out = message_;
  if (!context_.empty()) {
    out += " (";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      if (i > 0) out += "; ";
      out += "while ";
      out += context_[i];
    }
    out += ")";
  }
  return out;
}

void Error::rebuild_what() {
  what_ = std::string(error_code_name(code_)) + ": " + detail();
}

}  // namespace xlp
