#ifndef ANC_UTIL_ATOMIC_FILE_H_
#define ANC_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace anc {

/// Whole-file helpers and the one atomic-replace protocol every durable
/// file goes through (docs/durability.md "Framed records").

/// Reads all of `path` into *out. NotFound when the file cannot be opened.
Status ReadFile(const std::string& path, std::string* out);

/// Creates or truncates `path` and writes `bytes` (no fsync).
Status WriteFile(const std::string& path, std::string_view bytes);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// `path` only names the file in the error message.
Status WriteAll(int fd, const void* bytes, size_t size,
                const std::string& path);

/// fsync a file / a directory entry (segment creation, atomic renames).
Status FsyncFile(const std::string& path);
Status FsyncDir(const std::string& dir);

/// Publishes `path` atomically: `write(tmp)` produces the temp file, which
/// is fsynced; then `before_rename` (when set) runs — the crash seams that
/// model a death between a durable temp file and the swap hook in here —
/// and the temp file is renamed over `path` and the directory fsynced.
/// Any failure before the rename leaves `path` untouched and the temp file
/// behind for the owner's recovery sweep, which keys on the temp name.
Status AtomicReplace(const std::string& path, const std::string& tmp,
                     const std::function<Status(const std::string&)>& write,
                     const std::function<Status()>& before_rename = nullptr);

/// AtomicReplace for an in-memory image.
Status AtomicReplace(const std::string& path, const std::string& tmp,
                     std::string_view bytes,
                     const std::function<Status()>& before_rename = nullptr);

}  // namespace anc

#endif  // ANC_UTIL_ATOMIC_FILE_H_
