#pragma once

#include <optional>
#include <string>

namespace xlp::util {

/// Creates any missing parent directories of `path` so a subsequent open
/// for writing can succeed (no-op when the path has no directory
/// component). Returns false, without throwing, when creation failed.
bool ensure_parent_dir(const std::string& path) noexcept;

/// Crash-safe whole-file write: the content goes to a temporary file in
/// the same directory, is fsync'd to stable storage, renamed over `path`,
/// and the parent directory is fsync'd so the rename itself is durable.
/// A crash (or kill) at any point leaves either the old file or the new
/// one — never a truncated hybrid that would poison a reader like
/// `xlp diff` or a checkpoint load.
///
/// Durability contract: when this returns true, `path` holds the complete
/// new content and survives an immediate power loss; when it returns
/// false (or the process dies mid-call), the previous content — or the
/// file's absence — is untouched on disk.
///
/// Missing parent directories are created. Safe to call concurrently from
/// several threads or processes targeting the same path: temp names are
/// pid+sequence unique, so the writers never clobber each other and the
/// published file is always one writer's complete document. Returns
/// false, without throwing, on any failure (the temporary file is removed
/// best-effort).
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     const std::string& content) noexcept;

/// Reads a whole file into a string; nullopt when it cannot be opened or
/// read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace xlp::util
