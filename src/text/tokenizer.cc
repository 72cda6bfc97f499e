#include "text/tokenizer.h"

#include <array>
#include <cctype>

#include "common/hash.h"
#include "text/utf8.h"

namespace dj::text {
namespace {

bool IsWordCp(uint32_t cp) {
  if (IsAsciiAlnum(cp) || cp == '\'') return true;
  // Latin-1 and Latin Extended letters.
  if (cp >= 0x00C0 && cp <= 0x024F && cp != 0x00D7 && cp != 0x00F7) {
    return true;
  }
  // Greek / Cyrillic letters.
  if (cp >= 0x0370 && cp <= 0x04FF) return true;
  return false;
}

/// IsWordCp of each ASCII byte: letters, digits and '\''.
constexpr std::array<bool, 128> kAsciiWordByte = [] {
  std::array<bool, 128> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = table[c - 'a' + 'A'] = true;
  table['\''] = true;
  return table;
}();

/// Calls `emit(word)` for each word of `s`, as a view into `s`: a word is a
/// contiguous run of word codepoints, or a single CJK codepoint (the two
/// classes are disjoint). An ASCII byte is a whole codepoint, classified by
/// table, and a run of ASCII word bytes is passed in one loop; only a byte
/// of 0x80 or more goes through the decoder.
template <typename Emit>
void ForEachWord(std::string_view s, Emit&& emit) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(s.data());
  auto ascii_word = [&](size_t i) {
    return bytes[i] < 0x80 && kAsciiWordByte[bytes[i]];
  };
  size_t pos = 0;
  size_t word_start = 0;
  bool in_word = false;
  while (pos < s.size()) {
    const size_t start = pos;
    if (ascii_word(pos)) {
      do {
        ++pos;
      } while (pos < s.size() && ascii_word(pos));
      if (!in_word) word_start = start;
      in_word = true;
      continue;
    }
    if (bytes[pos] < 0x80) {
      ++pos;
      if (in_word) emit(s.substr(word_start, start - word_start));
      in_word = false;
      continue;
    }
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (IsWordCp(cp)) {
      if (!in_word) word_start = start;
      in_word = true;
      continue;
    }
    if (in_word) emit(s.substr(word_start, start - word_start));
    in_word = false;
    if (IsCjk(cp)) emit(s.substr(start, pos - start));
  }
  if (in_word) emit(s.substr(word_start));
}

}  // namespace

std::vector<std::string> TokenizeWords(std::string_view s) {
  std::vector<std::string> out;
  ForEachWord(s, [&](std::string_view w) { out.emplace_back(w); });
  return out;
}

std::vector<std::string> TokenizeWordsLower(std::string_view s) {
  std::vector<std::string> out = TokenizeWords(s);
  for (std::string& w : out) {
    for (char& c : w) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

std::vector<uint64_t> WordHashes(std::string_view s, bool lowercase) {
  std::vector<uint64_t> out;
  ForEachWord(s, [&](std::string_view w) {
    // Fnv1a64(w), with ASCII case folding when asked (TokenizeWordsLower's
    // std::tolower folds only A-Z in the "C" locale).
    uint64_t h = kFnv1a64Offset;
    for (unsigned char c : w) {
      if (lowercase && c >= 'A' && c <= 'Z') c += 'a' - 'A';
      h ^= c;
      h *= kFnv1a64Prime;
    }
    out.push_back(h);
  });
  return out;
}

std::vector<std::string> TokenizeWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

size_t CountWords(std::string_view s) {
  size_t count = 0;
  ForEachWord(s, [&](std::string_view) { ++count; });
  return count;
}

size_t ApproxLlmTokenCount(std::string_view s) {
  // Words plus punctuation marks; long words contribute extra subword
  // pieces (~1 per 6 chars beyond the first 6), approximating BPE growth.
  size_t tokens = 0;
  size_t pos = 0;
  size_t word_len = 0;
  while (pos < s.size()) {
    uint32_t cp;
    DecodeUtf8(s, &pos, &cp);
    if (IsWordCp(cp)) {
      ++word_len;
    } else {
      if (word_len > 0) {
        tokens += 1 + (word_len > 6 ? (word_len - 1) / 6 : 0);
        word_len = 0;
      }
      if (IsCjk(cp) || IsPunctuationCp(cp)) ++tokens;
    }
  }
  if (word_len > 0) tokens += 1 + (word_len > 6 ? (word_len - 1) / 6 : 0);
  return tokens;
}

}  // namespace dj::text
