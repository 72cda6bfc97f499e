#ifndef DJ_COMMON_FILE_UTIL_H_
#define DJ_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace dj {

/// Reads a whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `content` to `path`, creating parent directories.
Status WriteStringToFile(const std::string& path, std::string_view content);

/// Crash-atomic write: `content` goes to `path + ".tmp"`, is fsync'd, and
/// is renamed over `path` (then the parent directory is fsync'd so the
/// rename itself is durable). A crash at any step leaves either the old
/// `path` intact or a stray .tmp file — never a torn `path`. Used for
/// cache entries and checkpoint blobs (through data::WriteFileAtomic) and
/// for the srclint manifest that `dj_srclint --update-manifest` rewrites.
Status WriteStringToFileAtomic(const std::string& path,
                               std::string_view content);

}  // namespace dj

#endif  // DJ_COMMON_FILE_UTIL_H_
