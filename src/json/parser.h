#ifndef DJ_JSON_PARSER_H_
#define DJ_JSON_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "json/value.h"

namespace dj::json {

/// Deepest nesting of arrays and objects a document may have; the outermost
/// one is level 1. Parse and ParseStrict, YAML flow values and the DJDS
/// value decoder reject anything deeper as Corruption. A DJDS cell is
/// decoded at level 1, inside its row, so a JSONL line parses exactly when
/// its cells can be read back from DJDS.
inline constexpr int kMaxNestingDepth = 256;

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Accepts standard JSON plus two lenient extensions used by hand-written
/// recipes: comments ("// ..." and "# ..." to end of line) and trailing
/// commas in arrays/objects.
Result<Value> Parse(std::string_view text);

/// Strict variant: no comments, no trailing commas (used for JSONL data).
Result<Value> ParseStrict(std::string_view text);

}  // namespace dj::json

#endif  // DJ_JSON_PARSER_H_
