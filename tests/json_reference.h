#ifndef DJ_TESTS_JSON_REFERENCE_H_
#define DJ_TESTS_JSON_REFERENCE_H_

// Byte-at-a-time reference of json::ParseStrict. Strings are built one
// byte at a time and every number token is copied and converted with
// strtoll, then strtod, where the parser copies string runs with
// swar::JsonCleanSpan and converts short integers inline. Nesting is
// bounded by json::kMaxNestingDepth with the parser's error text. Tests
// compare accepted values and error texts with it.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "json/parser.h"
#include "json/value.h"

namespace dj::reference {

class StrictJsonParser {
 public:
  explicit StrictJsonParser(std::string_view text) : text_(text) {}

  Result<json::Value> Run() {
    SkipWhitespace();
    json::Value v;
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
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  Status ParseValue(json::Value* out, int depth) {
    if (AtEnd()) return Error("unexpected end of input");
    const char c = Peek();
    if (c == '{' || c == '[') {
      if (depth >= json::kMaxNestingDepth) {
        return Error("nested deeper than " +
                     std::to_string(json::kMaxNestingDepth) + " levels");
      }
      return c == '{' ? ParseObject(out, depth + 1)
                      : ParseArray(out, depth + 1);
    }
    if (c == '"') {
      std::string s;
      DJ_RETURN_IF_ERROR(ParseString(&s));
      *out = json::Value(std::move(s));
      return Status::Ok();
    }
    if (c == 't' || c == 'f' || c == 'n') return ParseLiteral(out);
    return ParseNumber(out);
  }

  Status ParseObject(json::Value* out, int depth) {
    ++pos_;
    json::Object obj;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      *out = json::Value(std::move(obj));
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
      json::Value value;
      DJ_RETURN_IF_ERROR(ParseValue(&value, depth));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      return Error("expected ',' or '}'");
    }
    *out = json::Value(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(json::Value* out, int depth) {
    ++pos_;
    json::Array arr;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      *out = json::Value(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      json::Value v;
      DJ_RETURN_IF_ERROR(ParseValue(&v, depth));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        break;
      }
      return Error("expected ',' or ']'");
    }
    *out = json::Value(std::move(arr));
    return Status::Ok();
  }

  Status ParseString(std::string* s) {
    ++pos_;  // consume '"'
    while (true) {
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
        case '\\':
        case '/':
          s->push_back(e);
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
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              uint32_t low = 0;
              DJ_RETURN_IF_ERROR(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
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

  Status ParseLiteral(json::Value* out) {
    for (auto [word, value] :
         {std::pair<std::string_view, json::Value>{"true", json::Value(true)},
          {"false", json::Value(false)},
          {"null", json::Value(nullptr)}}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        *out = std::move(value);
        return Status::Ok();
      }
    }
    return Error("invalid literal");
  }

  Status ParseNumber(json::Value* out) {
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
    std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        *out = json::Value(static_cast<int64_t>(v));
        return Status::Ok();
      }
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size() ||
        !std::isfinite(d)) {
      return Error("malformed number '" + token + "'");
    }
    *out = json::Value(d);
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

inline Result<json::Value> ParseStrictJson(std::string_view text) {
  return StrictJsonParser(text).Run();
}

}  // namespace dj::reference

#endif  // DJ_TESTS_JSON_REFERENCE_H_
