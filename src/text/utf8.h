#ifndef DJ_TEXT_UTF8_H_
#define DJ_TEXT_UTF8_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace dj::text {

/// Decodes the UTF-8 sequence starting at `s[pos]`. On success writes the
/// codepoint and advances `pos`; on malformed input writes U+FFFD, advances
/// by one byte, and returns false.
bool DecodeUtf8(std::string_view s, size_t* pos, uint32_t* codepoint);

/// Appends the UTF-8 encoding of `codepoint` to `out`.
void EncodeUtf8(uint32_t codepoint, std::string* out);

/// Number of codepoints in `s` (malformed bytes count as one each).
size_t CodepointCount(std::string_view s);

/// True if `s` is entirely well-formed UTF-8.
bool IsValidUtf8(std::string_view s);

/// Codepoint class predicates used by OPs.
bool IsCjk(uint32_t cp);               ///< CJK unified ideographs + extensions.
bool IsAsciiAlnum(uint32_t cp);
bool IsAsciiAlpha(uint32_t cp);
bool IsAsciiDigit(uint32_t cp);
bool IsWhitespaceCp(uint32_t cp);      ///< ASCII whitespace + NBSP + ideographic.
bool IsPunctuationCp(uint32_t cp);     ///< ASCII punctuation + common unicode.
bool IsEmojiLike(uint32_t cp);         ///< Misc symbols / emoji blocks.

}  // namespace dj::text

#endif  // DJ_TEXT_UTF8_H_
