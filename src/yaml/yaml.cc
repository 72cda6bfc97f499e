#include "yaml/yaml.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "json/parser.h"

namespace dj::yaml {
namespace {

using json::Array;
using json::Object;
using json::Value;

struct Line {
  int indent = 0;
  std::string content;
};

/// Removes a trailing comment that is not inside quotes. A '#' only starts a
/// comment at line start or after whitespace (YAML rule).
std::string StripComment(std::string_view line) {
  bool in_single = false;
  bool in_double = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_double) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_double = false;
      }
    } else if (in_single) {
      if (c == '\'') in_single = false;
    } else if (c == '"') {
      in_double = true;
    } else if (c == '\'') {
      in_single = true;
    } else if (c == '#' &&
               (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
      return std::string(line.substr(0, i));
    }
  }
  return std::string(line);
}

/// Finds the first ':' outside quotes that is followed by a space or ends the
/// line (i.e., a mapping separator). Returns npos if none.
size_t FindMappingColon(std::string_view s) {
  bool in_single = false;
  bool in_double = false;
  int flow_depth = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_double) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_double = false;
      }
    } else if (in_single) {
      if (c == '\'') in_single = false;
    } else if (c == '"') {
      in_double = true;
    } else if (c == '\'') {
      in_single = true;
    } else if (c == '[' || c == '{') {
      ++flow_depth;
    } else if (c == ']' || c == '}') {
      --flow_depth;
    } else if (c == ':' && flow_depth == 0 &&
               (i + 1 == s.size() || s[i + 1] == ' ')) {
      return i;
    }
  }
  return std::string_view::npos;
}

class YamlParser {
 public:
  explicit YamlParser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    DJ_RETURN_IF_ERROR(Tokenize());
    if (lines_.empty()) return Value(Object());
    size_t i = 0;
    Value root;
    DJ_RETURN_IF_ERROR(ParseBlock(&i, 0, &root));
    if (i != lines_.size()) {
      return Status::Corruption("yaml: unexpected dedent/content at line " +
                                std::to_string(line_numbers_[i]));
    }
    return root;
  }

 private:
  Status Tokenize() {
    int lineno = 0;
    for (const std::string& raw : SplitLines(text_)) {
      ++lineno;
      std::string no_comment = StripComment(raw);
      // Measure indentation in spaces; tabs are rejected (as in YAML).
      int indent = 0;
      size_t p = 0;
      while (p < no_comment.size() && no_comment[p] == ' ') {
        ++indent;
        ++p;
      }
      if (p < no_comment.size() && no_comment[p] == '\t') {
        return Status::Corruption("yaml: tab indentation at line " +
                                  std::to_string(lineno));
      }
      std::string_view body = StripAsciiWhitespace(no_comment);
      if (body.empty()) continue;
      if (body == "---") continue;  // single-document marker tolerated
      if (StartsWith(body, "&") || StartsWith(body, "*") ||
          EndsWith(body, "|") || EndsWith(body, ">")) {
        return Status::Corruption(
            "yaml: anchors/aliases/block scalars unsupported (line " +
            std::to_string(lineno) + ")");
      }
      lines_.push_back({indent, std::string(body)});
      line_numbers_.push_back(lineno);
    }
    return Status::Ok();
  }

  Status ParseBlock(size_t* i, int min_indent, Value* out) {
    if (*i >= lines_.size() || lines_[*i].indent < min_indent) {
      *out = Value(nullptr);
      return Status::Ok();
    }
    if (lines_[*i].content[0] == '-' &&
        (lines_[*i].content.size() == 1 || lines_[*i].content[1] == ' ')) {
      return ParseSequence(i, out);
    }
    return ParseMapping(i, out);
  }

  Status ParseSequence(size_t* i, Value* out) {
    const int base = lines_[*i].indent;
    Array arr;
    while (*i < lines_.size() && lines_[*i].indent == base &&
           lines_[*i].content[0] == '-' &&
           (lines_[*i].content.size() == 1 || lines_[*i].content[1] == ' ')) {
      std::string rest(StripAsciiWhitespace(
          std::string_view(lines_[*i].content).substr(1)));
      Value item;
      if (rest.empty()) {
        ++*i;
        DJ_RETURN_IF_ERROR(ParseBlock(i, base + 1, &item));
      } else {
        size_t colon = FindMappingColon(rest);
        bool looks_like_mapping =
            colon != std::string_view::npos && rest[0] != '[' &&
            rest[0] != '{' && rest[0] != '"' && rest[0] != '\'';
        if (looks_like_mapping) {
          // Re-anchor the inline content two columns right of the dash and
          // parse it as the first entry of a nested mapping.
          lines_[*i].indent = base + 2;
          lines_[*i].content = rest;
          DJ_RETURN_IF_ERROR(ParseMapping(i, &item));
        } else {
          DJ_RETURN_IF_ERROR(ParseScalar(rest, *i, &item));
          ++*i;
        }
      }
      arr.push_back(std::move(item));
    }
    *out = Value(std::move(arr));
    return Status::Ok();
  }

  Status ParseMapping(size_t* i, Value* out) {
    const int base = lines_[*i].indent;
    Object obj;
    while (*i < lines_.size() && lines_[*i].indent == base) {
      const std::string& content = lines_[*i].content;
      if (content[0] == '-' && (content.size() == 1 || content[1] == ' ')) {
        break;  // sequence at same indent ends the mapping
      }
      size_t colon = FindMappingColon(content);
      if (colon == std::string_view::npos) {
        return Status::Corruption("yaml: expected 'key: value' at line " +
                                  std::to_string(line_numbers_[*i]));
      }
      std::string key(
          StripAsciiWhitespace(std::string_view(content).substr(0, colon)));
      if (key.size() >= 2 &&
          ((key.front() == '"' && key.back() == '"') ||
           (key.front() == '\'' && key.back() == '\''))) {
        key = key.substr(1, key.size() - 2);
      }
      std::string rest(
          StripAsciiWhitespace(std::string_view(content).substr(colon + 1)));
      Value value;
      if (rest.empty()) {
        ++*i;
        if (*i < lines_.size() && lines_[*i].indent > base) {
          DJ_RETURN_IF_ERROR(ParseBlock(i, base + 1, &value));
        } else {
          value = Value(nullptr);
        }
      } else {
        DJ_RETURN_IF_ERROR(ParseScalar(rest, *i, &value));
        ++*i;
      }
      obj.Set(std::move(key), std::move(value));
    }
    *out = Value(std::move(obj));
    return Status::Ok();
  }

  Status ParseScalar(std::string_view token, size_t line_index, Value* out) {
    token = StripAsciiWhitespace(token);
    if (token.empty()) {
      *out = Value(nullptr);
      return Status::Ok();
    }
    char first = token[0];
    if (first == '&' || first == '*' || token == "|" || token == ">") {
      return Status::Corruption(
          "yaml: anchors/aliases/block scalars unsupported (line " +
          std::to_string(line_numbers_[line_index]) + ")");
    }
    if (first == '[' || first == '{') {
      return ParseFlow(token, line_index, out);
    }
    if (first == '"') {
      auto r = json::ParseStrict(token);
      if (!r.ok()) {
        return Status::Corruption("yaml: bad double-quoted scalar at line " +
                                  std::to_string(line_numbers_[line_index]));
      }
      *out = std::move(r).value();
      return Status::Ok();
    }
    if (first == '\'') {
      if (token.size() < 2 || token.back() != '\'') {
        return Status::Corruption("yaml: unterminated single quote at line " +
                                  std::to_string(line_numbers_[line_index]));
      }
      std::string inner(token.substr(1, token.size() - 2));
      *out = Value(ReplaceAll(inner, "''", "'"));
      return Status::Ok();
    }
    if (token == "true" || token == "True") {
      *out = Value(true);
      return Status::Ok();
    }
    if (token == "false" || token == "False") {
      *out = Value(false);
      return Status::Ok();
    }
    if (token == "null" || token == "~" || token == "Null") {
      *out = Value(nullptr);
      return Status::Ok();
    }
    int64_t i64 = 0;
    if (ParseInt64(token, &i64)) {
      *out = Value(i64);
      return Status::Ok();
    }
    double d = 0;
    if (ParseDouble(token, &d)) {
      *out = Value(d);
      return Status::Ok();
    }
    *out = Value(std::string(token));
    return Status::Ok();
  }

  /// Parses inline flow collections ("[a, 1]", "{k: v}") where elements may
  /// be bare words, by splitting at top level and recursing through
  /// ParseScalar.
  Status ParseFlow(std::string_view s, size_t line_index, Value* out) {
    size_t pos = 0;
    DJ_RETURN_IF_ERROR(ParseFlowValue(s, &pos, line_index, 0, out));
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
    if (pos != s.size()) {
      return Status::Corruption("yaml: trailing characters in flow value");
    }
    return Status::Ok();
  }

  /// `depth` counts the flow sequences and mappings around the value.
  Status ParseFlowValue(std::string_view s, size_t* pos, size_t line_index,
                        int depth, Value* out) {
    while (*pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[*pos]))) {
      ++*pos;
    }
    if (*pos >= s.size()) return Status::Corruption("yaml: empty flow value");
    char c = s[*pos];
    if ((c == '[' || c == '{') && depth >= json::kMaxNestingDepth) {
      return Status::Corruption(
          "yaml: flow value nested deeper than " +
          std::to_string(json::kMaxNestingDepth) + " levels at line " +
          std::to_string(line_numbers_[line_index]));
    }
    if (c == '[') {
      ++*pos;
      Array arr;
      SkipFlowSpace(s, pos);
      if (*pos < s.size() && s[*pos] == ']') {
        ++*pos;
        *out = Value(std::move(arr));
        return Status::Ok();
      }
      while (true) {
        Value v;
        DJ_RETURN_IF_ERROR(ParseFlowValue(s, pos, line_index, depth + 1, &v));
        arr.push_back(std::move(v));
        SkipFlowSpace(s, pos);
        if (*pos >= s.size()) return Status::Corruption("yaml: unterminated [");
        if (s[*pos] == ',') {
          ++*pos;
          continue;
        }
        if (s[*pos] == ']') {
          ++*pos;
          break;
        }
        return Status::Corruption("yaml: expected ',' or ']'");
      }
      *out = Value(std::move(arr));
      return Status::Ok();
    }
    if (c == '{') {
      ++*pos;
      Object obj;
      SkipFlowSpace(s, pos);
      if (*pos < s.size() && s[*pos] == '}') {
        ++*pos;
        *out = Value(std::move(obj));
        return Status::Ok();
      }
      while (true) {
        SkipFlowSpace(s, pos);
        size_t key_start = *pos;
        while (*pos < s.size() && s[*pos] != ':') ++*pos;
        if (*pos >= s.size()) {
          return Status::Corruption("yaml: expected ':' in flow mapping");
        }
        std::string key(StripAsciiWhitespace(
            s.substr(key_start, *pos - key_start)));
        if (key.size() >= 2 && ((key.front() == '"' && key.back() == '"') ||
                                (key.front() == '\'' && key.back() == '\''))) {
          key = key.substr(1, key.size() - 2);
        }
        ++*pos;  // ':'
        Value v;
        DJ_RETURN_IF_ERROR(ParseFlowValue(s, pos, line_index, depth + 1, &v));
        obj.Set(std::move(key), std::move(v));
        SkipFlowSpace(s, pos);
        if (*pos >= s.size()) return Status::Corruption("yaml: unterminated {");
        if (s[*pos] == ',') {
          ++*pos;
          continue;
        }
        if (s[*pos] == '}') {
          ++*pos;
          break;
        }
        return Status::Corruption("yaml: expected ',' or '}'");
      }
      *out = Value(std::move(obj));
      return Status::Ok();
    }
    // Scalar token: read to the next top-level delimiter, respecting quotes.
    size_t start = *pos;
    bool in_single = false, in_double = false;
    while (*pos < s.size()) {
      char ch = s[*pos];
      if (in_double) {
        if (ch == '\\') {
          ++*pos;
        } else if (ch == '"') {
          in_double = false;
        }
      } else if (in_single) {
        if (ch == '\'') in_single = false;
      } else if (ch == '"') {
        in_double = true;
      } else if (ch == '\'') {
        in_single = true;
      } else if (ch == ',' || ch == ']' || ch == '}') {
        break;
      }
      ++*pos;
    }
    return ParseScalar(s.substr(start, *pos - start), line_index, out);
  }

  static void SkipFlowSpace(std::string_view s, size_t* pos) {
    while (*pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[*pos]))) {
      ++*pos;
    }
  }

  std::string_view text_;
  std::vector<Line> lines_;
  std::vector<int> line_numbers_;
};

}  // namespace

Result<json::Value> Parse(std::string_view text) {
  return YamlParser(text).Run();
}

}  // namespace dj::yaml
