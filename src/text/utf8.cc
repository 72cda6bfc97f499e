#include "text/utf8.h"

#include "common/swar.h"

namespace dj::text {
namespace {

constexpr uint32_t kReplacement = 0xFFFD;

}  // namespace

bool DecodeUtf8(std::string_view s, size_t* pos, uint32_t* codepoint) {
  if (*pos >= s.size()) return false;
  uint8_t b0 = static_cast<uint8_t>(s[*pos]);
  if (b0 < 0x80) {
    *codepoint = b0;
    ++*pos;
    return true;
  }
  int len;
  uint32_t cp;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1F;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0F;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07;
  } else {
    *codepoint = kReplacement;
    ++*pos;
    return false;
  }
  if (*pos + len > s.size()) {
    *codepoint = kReplacement;
    ++*pos;
    return false;
  }
  for (int i = 1; i < len; ++i) {
    uint8_t b = static_cast<uint8_t>(s[*pos + i]);
    if ((b & 0xC0) != 0x80) {
      *codepoint = kReplacement;
      ++*pos;
      return false;
    }
    cp = (cp << 6) | (b & 0x3F);
  }
  // Reject overlong encodings and surrogates.
  if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
      (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
      cp > 0x10FFFF) {
    *codepoint = kReplacement;
    ++*pos;
    return false;
  }
  *codepoint = cp;
  *pos += len;
  return true;
}

void EncodeUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

size_t CodepointCount(std::string_view s) {
  // An ASCII byte is one decode step of one byte, so ASCII runs are counted
  // in bulk and the decoder runs only at bytes of 0x80 or more.
  size_t pos = 0, count = 0;
  uint32_t cp;
  while (pos < s.size()) {
    if (static_cast<uint8_t>(s[pos]) >= 0x80) {
      DecodeUtf8(s, &pos, &cp);
      ++count;
      continue;
    }
    size_t run = swar::AsciiSpan(s.data() + pos, s.size() - pos);
    pos += run;
    count += run;
  }
  return count;
}

bool IsValidUtf8(std::string_view s) {
  size_t pos = 0;
  uint32_t cp;
  while (pos < s.size()) {
    if (!DecodeUtf8(s, &pos, &cp)) return false;
  }
  return true;
}

std::vector<uint32_t> DecodeAll(std::string_view s) {
  std::vector<uint32_t> out;
  out.reserve(s.size());
  size_t pos = 0;
  uint32_t cp;
  while (pos < s.size()) {
    DecodeUtf8(s, &pos, &cp);
    out.push_back(cp);
  }
  return out;
}

bool IsCjk(uint32_t cp) {
  return (cp >= 0x4E00 && cp <= 0x9FFF) ||    // CJK Unified
         (cp >= 0x3400 && cp <= 0x4DBF) ||    // Extension A
         (cp >= 0xF900 && cp <= 0xFAFF) ||    // Compatibility
         (cp >= 0x20000 && cp <= 0x2A6DF) ||  // Extension B
         (cp >= 0x3040 && cp <= 0x30FF) ||    // Hiragana/Katakana
         (cp >= 0xAC00 && cp <= 0xD7AF);      // Hangul syllables
}

bool IsAsciiAlnum(uint32_t cp) {
  return IsAsciiAlpha(cp) || IsAsciiDigit(cp);
}

bool IsAsciiAlpha(uint32_t cp) {
  return (cp >= 'a' && cp <= 'z') || (cp >= 'A' && cp <= 'Z');
}

bool IsAsciiDigit(uint32_t cp) { return cp >= '0' && cp <= '9'; }

bool IsWhitespaceCp(uint32_t cp) {
  return cp == ' ' || cp == '\t' || cp == '\n' || cp == '\r' || cp == '\f' ||
         cp == '\v' || cp == 0x00A0 || cp == 0x3000 ||
         (cp >= 0x2000 && cp <= 0x200B);
}

bool IsPunctuationCp(uint32_t cp) {
  if (cp < 0x80) {
    return (cp >= '!' && cp <= '/') || (cp >= ':' && cp <= '@') ||
           (cp >= '[' && cp <= '`') || (cp >= '{' && cp <= '~');
  }
  return (cp >= 0x2010 && cp <= 0x2027) ||  // dashes, quotes, ellipsis
         (cp >= 0x3001 && cp <= 0x303F) ||  // CJK punctuation
         (cp >= 0xFF01 && cp <= 0xFF0F) ||  // fullwidth punctuation
         (cp >= 0xFF1A && cp <= 0xFF20) || (cp >= 0xFF3B && cp <= 0xFF40) ||
         (cp >= 0xFF5B && cp <= 0xFF65) ||
         cp == 0x00A1 || cp == 0x00BF || cp == 0x00AB || cp == 0x00BB;
}

bool IsEmojiLike(uint32_t cp) {
  return (cp >= 0x1F300 && cp <= 0x1FAFF) ||  // emoji blocks
         (cp >= 0x2600 && cp <= 0x27BF) ||    // misc symbols / dingbats
         (cp >= 0xFE00 && cp <= 0xFE0F);      // variation selectors
}

}  // namespace dj::text
