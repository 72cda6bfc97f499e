#include "json/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/swar.h"

namespace dj::json {
namespace {

/// Converts a scanned number token to a Value: the single source of number
/// semantics. Without '.', 'e' or 'E' (`is_double`) a token is a sign and
/// digits; 1 to 18 digits cannot overflow and convert inline, exactly as
/// strtoll would. Any other token is copied once for strtoll, then strtod,
/// so an integer that overflows becomes a double. Returns false when the
/// token is malformed.
bool NumberTokenToValue(std::string_view token, bool is_double, Value* out) {
  if (!is_double) {
    const size_t digits_at = token[0] == '-' || token[0] == '+' ? 1 : 0;
    const size_t digits = token.size() - digits_at;
    if (digits >= 1 && digits <= 18) {
      uint64_t v = 0;
      for (size_t i = digits_at; i < token.size(); ++i) {
        v = v * 10 + static_cast<uint64_t>(token[i] - '0');
      }
      *out = Value(token[0] == '-' ? -static_cast<int64_t>(v)
                                   : static_cast<int64_t>(v));
      return true;
    }
  }
  const std::string owned(token);
  if (!is_double) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(owned.c_str(), &end, 10);
    if (errno == 0 && end == owned.c_str() + owned.size()) {
      *out = Value(static_cast<int64_t>(v));
      return true;
    }
    // Fall through: integer overflow becomes a double.
  }
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size() || !std::isfinite(d)) {
    return false;
  }
  *out = Value(d);
  return true;
}

class Parser {
 public:
  Parser(std::string_view text, bool lenient)
      : text_(text), lenient_(lenient) {}

  Result<Value> Run() {
    SkipWhitespace();
    Value v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& msg) const {
    // Report 1-based line/column for usable recipe diagnostics.
    int line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::Corruption(msg + " at line " + std::to_string(line) +
                              ", column " + std::to_string(col));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (lenient_ && c == '#') {
        SkipToLineEnd();
      } else if (lenient_ && c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        SkipToLineEnd();
      } else {
        break;
      }
    }
  }

  void SkipToLineEnd() {
    while (!AtEnd() && Peek() != '\n') ++pos_;
  }

  /// `depth` counts the arrays and objects around the value.
  Status ParseValue(Value* out, int depth) {
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
      case '[':
        if (depth >= kMaxNestingDepth) {
          return Error("nested deeper than " +
                       std::to_string(kMaxNestingDepth) + " levels");
        }
        return Peek() == '{' ? ParseObject(out, depth + 1)
                             : ParseArray(out, depth + 1);
      case '"': {
        std::string s;
        DJ_RETURN_IF_ERROR(ParseString(&s));
        *out = Value(std::move(s));
        return Status::Ok();
      }
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // consume '{'
    Object obj;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      *out = Value(std::move(obj));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      std::string key;
      DJ_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Error("expected ':'");
      ++pos_;
      SkipWhitespace();
      Value value;
      DJ_RETURN_IF_ERROR(ParseValue(&value, depth));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (lenient_ && !AtEnd() && Peek() == '}') {
          ++pos_;
          break;
        }
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      return Error("expected ',' or '}'");
    }
    *out = Value(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // consume '['
    Array arr;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      *out = Value(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      Value v;
      DJ_RETURN_IF_ERROR(ParseValue(&v, depth));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (lenient_ && !AtEnd() && Peek() == ']') {
          ++pos_;
          break;
        }
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        break;
      }
      return Error("expected ',' or ']'");
    }
    *out = Value(std::move(arr));
    return Status::Ok();
  }

  /// Appends the string at pos_ (on its opening quote) to `*s`. Runs of
  /// bytes that need no attention are copied whole; a raw control byte is
  /// kept as it is.
  Status ParseString(std::string* s) {
    ++pos_;  // consume '"'
    while (true) {
      const size_t run =
          swar::JsonCleanSpan(text_.data() + pos_, text_.size() - pos_);
      s->append(text_.data() + pos_, run);
      pos_ += run;
      if (AtEnd()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        s->push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          s->push_back('"');
          break;
        case '\\':
          s->push_back('\\');
          break;
        case '/':
          s->push_back('/');
          break;
        case 'b':
          s->push_back('\b');
          break;
        case 'f':
          s->push_back('\f');
          break;
        case 'n':
          s->push_back('\n');
          break;
        case 'r':
          s->push_back('\r');
          break;
        case 't':
          s->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          DJ_RETURN_IF_ERROR(ParseHex4(&cp));
          // Surrogate pair handling.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low = 0;
              DJ_RETURN_IF_ERROR(ParseHex4(&low));
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                return Error("invalid low surrogate");
              }
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, s);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* s) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseBool(Value* out) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = Value(true);
      return Status::Ok();
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = Value(false);
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNull(Value* out) {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      *out = Value(nullptr);
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
    bool is_double = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("invalid value");
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!NumberTokenToValue(token, is_double, out)) {
      return Error("malformed number '" + std::string(token) + "'");
    }
    return Status::Ok();
  }

  std::string_view text_;
  bool lenient_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text, /*lenient=*/true).Run();
}

Result<Value> ParseStrict(std::string_view text) {
  return Parser(text, /*lenient=*/false).Run();
}

}  // namespace dj::json
