#ifndef DJ_JSON_WRITER_H_
#define DJ_JSON_WRITER_H_

#include <string>

#include "json/value.h"

namespace dj::json {

/// Serialization options.
struct WriteOptions {
  /// Pretty-print with 2-space indentation; compact single line otherwise.
  bool pretty = false;
};

/// Serializes `v` to a JSON string. Output is deterministic (object entries
/// keep insertion order), which config-hash caching relies on.
std::string Write(const Value& v, const WriteOptions& options = {});

/// Appends the serialization of `v` to `*out` (same bytes as Write). Lets
/// row serializers build a whole output buffer without per-value temporary
/// strings.
void WriteTo(const Value& v, std::string* out, const WriteOptions& options = {});

/// Appends the escaped form of `s` (including surrounding quotes) to `*out`.
/// Clean spans — runs with no byte needing escaping — are appended in bulk.
void EscapeStringTo(std::string_view s, std::string* out);

}  // namespace dj::json

#endif  // DJ_JSON_WRITER_H_
