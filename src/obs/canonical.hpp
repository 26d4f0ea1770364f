#pragma once

#include <string>

#include "obs/json.hpp"

namespace xlp::obs {

/// Returns a copy of `value` with every object's members sorted by key
/// (bytewise, recursively; array order is preserved). Two documents that
/// differ only in member insertion order canonicalize identically.
[[nodiscard]] Json canonical_sorted(const Json& value);

/// Canonical serialization: canonical_sorted(value).dump(). This is the
/// byte string content hashes are taken over — ledger run ids hash it, and
/// svc::Request::id() writes the same bytes without building a Json — so a
/// request built field-by-field by the CLI and one parsed from a client's
/// JSON (any member order) hash the same.
/// Number formatting is dump()'s: integral values print without a
/// fraction, doubles with just enough digits to round-trip — stable
/// across platforms, processes and thread counts.
[[nodiscard]] std::string canonical_json(const Json& value);

/// FNV-1a 64-bit over `bytes`, as 16 lowercase hex characters. The shared
/// content-hash primitive behind ledger run ids and svc request/cache ids.
[[nodiscard]] std::string fnv1a64_hex(const std::string& bytes);

}  // namespace xlp::obs
