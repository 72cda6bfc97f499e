#ifndef DJ_TEXT_TOKENIZER_H_
#define DJ_TEXT_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj::text {

/// Splits text into word tokens: runs of letters/digits (ASCII and Latin-1
/// letters treated alike) stay together; each CJK codepoint is its own token
/// (standard practice for Chinese segmentation-free processing); punctuation
/// and whitespace are dropped.
std::vector<std::string> TokenizeWords(std::string_view s);

/// Lower-cased variant of TokenizeWords (ASCII case folding).
std::vector<std::string> TokenizeWordsLower(std::string_view s);

/// Fnv1a64 of each word of TokenizeWords(s), or of TokenizeWordsLower(s)
/// when `lowercase`, hashed in place: no word strings are built.
std::vector<uint64_t> WordHashes(std::string_view s, bool lowercase);

/// Splits into whitespace-delimited raw tokens (punctuation retained);
/// mirrors PySpark's standard Tokenizer used by the quality classifier.
std::vector<std::string> TokenizeWhitespace(std::string_view s);

/// Number of word tokens without materializing them.
size_t CountWords(std::string_view s);

/// Byte-pair-free "token count" proxy for LLM token budgeting: words +
/// punctuation runs, roughly proportional to a BPE tokenizer's output.
size_t ApproxLlmTokenCount(std::string_view s);

}  // namespace dj::text

#endif  // DJ_TEXT_TOKENIZER_H_
