#ifndef DJ_TESTS_TEXT_KERNEL_REFERENCE_H_
#define DJ_TESTS_TEXT_KERNEL_REFERENCE_H_

// Codepoint-at-a-time reference bodies of the text kernels that now copy
// runs of bytes: NormalizeWhitespace, FixUnicode, CodepointCount, the word
// dropping of remove_long_words_mapper and
// remove_words_with_incorrect_substrings_mapper, the cut of
// remove_bibliography_mapper, and the word scanner behind TokenizeWords,
// TokenizeWordsLower, WordHashes and CountWords. Tests compare the kernels
// with these, output byte for byte and counts exactly.

#include <cctype>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "text/utf8.h"
#include "workload/generator.h"

namespace dj::reference {

inline std::string NormalizeWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  int pending_newlines = 0;
  bool pending_space = false;
  bool at_line_start = true;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    text::DecodeUtf8(s, &pos, &cp);
    if (cp == '\n') {
      ++pending_newlines;
      pending_space = false;
      at_line_start = true;
      continue;
    }
    if (cp == '\r') continue;
    if (text::IsWhitespaceCp(cp)) {
      if (!at_line_start) pending_space = true;
      continue;
    }
    if (pending_newlines > 0) {
      if (!out.empty()) {
        out.append(pending_newlines >= 2 ? "\n\n" : "\n");
      }
      pending_newlines = 0;
      pending_space = false;
    } else if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.append(s.substr(start, pos - start));
    at_line_start = false;
  }
  return out;
}

inline std::string FixUnicode(std::string_view s) {
  std::string fixed(s);
  static const std::pair<std::string_view, std::string_view> kMojibake[] = {
      {"\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", "'"},
      {"\xC3\xA2\xE2\x82\xAC\xC5\x93", "\""},
      {"\xC3\xA2\xE2\x82\xAC\xC2\x9D", "\""},
      {"\xC3\xA2\xE2\x82\xAC\xE2\x80\x9C", "-"},
      {"\xC3\x82\xC2\xA0", " "},
  };
  for (const auto& [from, to] : kMojibake) {
    fixed = ReplaceAll(fixed, from, to);
  }
  std::string out;
  out.reserve(fixed.size());
  size_t pos = 0;
  while (pos < fixed.size()) {
    size_t start = pos;
    uint32_t cp;
    bool valid = text::DecodeUtf8(fixed, &pos, &cp);
    if (!valid || cp == 0xFFFD) continue;
    if (cp < 0x20 && cp != '\n' && cp != '\t') continue;
    if (cp == 0x7F) continue;
    if (cp == 0xFEFF || (cp >= 0x200B && cp <= 0x200F)) continue;
    out.append(fixed, start, pos - start);
  }
  return out;
}

inline size_t CodepointCount(std::string_view s) {
  size_t pos = 0, count = 0;
  uint32_t cp;
  while (pos < s.size()) {
    text::DecodeUtf8(s, &pos, &cp);
    ++count;
  }
  return count;
}

template <typename DropFn>
std::string RebuildDroppingWords(std::string_view input, DropFn&& drop) {
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  while (i < input.size()) {
    if (std::isspace(static_cast<unsigned char>(input[i]))) {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    size_t start = i;
    while (i < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    std::string_view word = input.substr(start, i - start);
    if (drop(word)) {
      if (i < input.size() && input[i] == ' ') ++i;
      continue;
    }
    out.append(word);
  }
  return out;
}

inline std::string RemoveLongWords(std::string_view input, size_t max_len) {
  return RebuildDroppingWords(input, [max_len](std::string_view word) {
    return CodepointCount(word) > max_len;
  });
}

inline std::string RemoveBibliography(std::string_view input) {
  static constexpr std::string_view kMarkers[] = {
      "\\begin{thebibliography}", "\\bibliography{", "\\printbibliography"};
  size_t cut = std::string_view::npos;
  for (std::string_view marker : kMarkers) {
    size_t pos = input.find(marker);
    if (pos != std::string_view::npos && pos < cut) cut = pos;
  }
  for (std::string_view heading :
       {"\nReferences\n", "\nREFERENCES\n", "\n# References\n"}) {
    size_t pos = input.rfind(heading);
    if (pos != std::string_view::npos && pos < cut &&
        pos > input.size() / 2) {
      cut = pos;
    }
  }
  if (cut == std::string_view::npos) return std::string(input);
  return std::string(input.substr(0, cut));
}

inline bool IsWordCp(uint32_t cp) {
  if (text::IsAsciiAlnum(cp) || cp == '\'') return true;
  if (cp >= 0x00C0 && cp <= 0x024F && cp != 0x00D7 && cp != 0x00F7) {
    return true;
  }
  if (cp >= 0x0370 && cp <= 0x04FF) return true;
  return false;
}

/// Decodes every codepoint, ASCII included, and classifies it.
template <typename Emit>
void ForEachWord(std::string_view s, Emit&& emit) {
  size_t pos = 0;
  size_t word_start = 0;
  bool in_word = false;
  while (pos < s.size()) {
    size_t start = pos;
    uint32_t cp;
    text::DecodeUtf8(s, &pos, &cp);
    if (IsWordCp(cp)) {
      if (!in_word) word_start = start;
      in_word = true;
      continue;
    }
    if (in_word) emit(s.substr(word_start, start - word_start));
    in_word = false;
    if (text::IsCjk(cp)) emit(s.substr(start, pos - start));
  }
  if (in_word) emit(s.substr(word_start));
}

inline std::vector<std::string> TokenizeWords(std::string_view s) {
  std::vector<std::string> out;
  ForEachWord(s, [&](std::string_view w) { out.emplace_back(w); });
  return out;
}

inline std::vector<std::string> TokenizeWordsLower(std::string_view s) {
  std::vector<std::string> out = TokenizeWords(s);
  for (std::string& w : out) {
    for (char& c : w) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

inline std::vector<uint64_t> WordHashes(std::string_view s, bool lowercase) {
  std::vector<uint64_t> out;
  for (const std::string& w :
       lowercase ? TokenizeWordsLower(s) : TokenizeWords(s)) {
    out.push_back(Fnv1a64(w));
  }
  return out;
}

/// A seeded random string of the pieces the word scanner classifies:
/// ASCII word bytes, punctuation and whitespace; Latin-1 letters and the
/// two Latin-1 symbols inside their range; the edges of the Latin,
/// Greek/Cyrillic and CJK ranges; U+FFFD; and invalid UTF-8 (truncated,
/// overlong, surrogate, above U+10FFFF, stray continuation bytes).
inline std::string WordFuzzText(std::mt19937_64& rng) {
  static const std::vector<std::string>* kPieces = [] {
    auto* p = new std::vector<std::string>{
        "a", "Z", "q", "0", "9", "'", "''", "word", "Word", "WORD", "it's",
        " ", "  ", "\t", "\n", "\r", ".", ",", "-", "!", "@", "[", "`",
        "{", "~", "\x7f", "\x01", "_", "/", ":",
        // invalid: truncated, overlong, surrogate, too large, stray
        "\xC3", "\xE4\xB8", "\xF0\x9F\x98", "\xC0\x80", "\xC1\xBF",
        "\xE0\x80\x80", "\xF0\x80\x80\x80", "\xED\xA0\x80",
        "\xED\xBF\xBF", "\xF4\x90\x80\x80", "\xF5\x80\x80\x80", "\xFE",
        "\xFF", "\x80", "\xBF", "\x9F",
    };
    for (uint32_t cp :
         {0xA0u, 0xBFu, 0xC0u, 0xC9u, 0xD6u, 0xD7u, 0xD8u, 0xE9u, 0xF6u, 0xF7u,
          0xF8u, 0xFFu, 0x100u, 0x24Fu, 0x250u, 0x36Fu, 0x370u, 0x3B1u, 0x416u,
          0x4FFu, 0x500u, 0x2019u, 0x3000u, 0x3040u, 0x30FFu, 0x3400u, 0x4E00u,
          0x4E2Du, 0x9FFFu, 0xA000u, 0xAC00u, 0xD7AFu, 0xF900u, 0xFFFDu,
          0x1F600u, 0x20000u, 0x2A6DFu}) {
      std::string e;
      text::EncodeUtf8(cp, &e);
      p->push_back(e);
    }
    return p;
  }();
  std::string s;
  const size_t pieces = rng() % 24;
  for (size_t k = 0; k < pieces; ++k) {
    if (rng() % 8 == 0) {
      s.push_back(static_cast<char>(rng() % 256));  // any byte
    } else {
      s += (*kPieces)[rng() % kPieces->size()];
    }
  }
  return s;
}

/// A seeded random string built from the pieces the kernels treat
/// specially: every whitespace codepoint and some neighbours, CR/LF runs,
/// the mojibake sequences and their prefixes, dropped codepoints, invalid
/// UTF-8 of each kind, LaTeX bibliography markers, and words of
/// `word_len` - 1, `word_len` and `word_len` + 1 bytes and codepoints.
inline std::string KernelFuzzText(std::mt19937_64& rng, size_t word_len) {
  static const std::vector<std::string>* kPieces = [] {
    auto* p = new std::vector<std::string>{
        // ASCII whitespace and text
        " ", " ", "  ", "\t", "\f", "\v", "a", "word", "x.", "-", "\"",
        "\\", "#", "\x01", "\x1f", "\x7f", "\x7e",
        // multi-byte whitespace and neighbours
        "\xC2\xA0", "\xE3\x80\x80", "\xE2\x80\x8C", "\xE2\x80\x90",
        "\xC2\x9F", "\xC2\xA1", "\xE2\xBF\xBF", "\xE3\x80\x81",
        "\xE3\x81\x82", "\xE1\xBF\xBF",
        // BOM, U+FFFD, other kept non-ASCII
        "\xEF\xBB\xBF", "\xEF\xBF\xBD", "\xC3\xA9", "\xE4\xB8\xAD",
        "\xF0\x9F\x98\x80",
        // invalid: overlong, surrogate, above U+10FFFF, truncated, stray
        "\xC0\x80", "\xC1\xBF", "\xE0\x80\x80", "\xF0\x80\x80\x80",
        "\xED\xA0\x80", "\xED\xBF\xBF", "\xF4\x90\x80\x80",
        "\xF5\x80\x80\x80", "\xFE", "\xFF", "\xE4\xB8", "\xF0\x9F\x98",
        "\xC3", "\xE2", "\xE2\x80", "\xE3\x80", "\xC2", "\x80", "\xBF",
        // bibliography markers
        "\nReferences\n", "\nREFERENCES\n", "\n# References\n",
        "\\begin{thebibliography}", "\\bibliography{refs}",
        "\\printbibliography", "References",
    };
    for (uint32_t cp = 0x2000; cp <= 0x200F; ++cp) {
      std::string e;
      text::EncodeUtf8(cp, &e);
      p->push_back(e);
    }
    const std::string_view mojibake[] = {
        "\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2", "\xC3\xA2\xE2\x82\xAC\xC5\x93",
        "\xC3\xA2\xE2\x82\xAC\xC2\x9D", "\xC3\xA2\xE2\x82\xAC\xE2\x80\x9C",
        "\xC3\x82\xC2\xA0"};
    for (std::string_view m : mojibake) {
      for (size_t len = 1; len <= m.size(); ++len) {
        p->emplace_back(m.substr(0, len));
      }
    }
    return p;
  }();
  std::string s;
  const size_t pieces = rng() % 32;
  for (size_t k = 0; k < pieces; ++k) {
    switch (rng() % 8) {
      case 0: {  // a CR/LF run of 1-4
        const size_t run = 1 + rng() % 4;
        for (size_t r = 0; r < run; ++r) s.push_back(rng() % 3 ? '\n' : '\r');
        break;
      }
      case 1: {  // a word of word_len - 1 .. word_len + 1 bytes or codepoints
        const size_t len = word_len + rng() % 3 - 1;
        const bool wide = rng() % 2;
        for (size_t c = 0; c < len; ++c) s.append(wide ? "\xC3\xA9" : "q");
        break;
      }
      case 2:  // any byte
        s.push_back(static_cast<char>(rng() % 256));
        break;
      default:
        s += (*kPieces)[rng() % kPieces->size()];
    }
  }
  return s;
}

/// A few hundred documents in each corpus style of the bench_e2e workloads,
/// generated with their noise settings.
inline std::vector<std::string> BenchStyleDocuments(size_t per_style) {
  using workload::Style;
  std::vector<std::string> docs;
  for (Style style : {Style::kWeb, Style::kBooks, Style::kStackExchange,
                      Style::kArxiv}) {
    workload::CorpusOptions options;
    options.style = style;
    options.num_docs = per_style;
    options.seed = 1;
    options.boilerplate_rate = 0.2;
    options.spam_rate = 0.05;
    options.noise_rate = 0.1;
    options.foreign_rate = 0.05;
    options.short_doc_rate = 0.05;
    data::Dataset ds = workload::CorpusGenerator(options).Generate();
    for (size_t i = 0; i < ds.NumRows(); ++i) {
      docs.emplace_back(ds.GetTextAt(i));
    }
  }
  return docs;
}

}  // namespace dj::reference

#endif  // DJ_TESTS_TEXT_KERNEL_REFERENCE_H_
