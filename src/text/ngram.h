#ifndef DJ_TEXT_NGRAM_H_
#define DJ_TEXT_NGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dj::text {

/// 64-bit hashes of word n-grams (cheaper than materializing strings; used
/// by MinHash/SimHash and repetition filters).
std::vector<uint64_t> HashedWordNgrams(const std::vector<std::string>& words,
                                       size_t n);

/// The same n-gram hashes from per-word Fnv1a64 hashes (e.g. WordHashes):
/// each window of `n` word hashes is combined into one.
std::vector<uint64_t> HashedWordNgrams(const std::vector<uint64_t>& word_hashes,
                                       size_t n);

/// 64-bit hashes of character n-grams over raw bytes (windowed), used by the
/// character-repetition filter; ASCII-oriented but stable for any input.
std::vector<uint64_t> HashedCharNgrams(std::string_view s, size_t n);

/// Fraction of duplicated n-grams: 1 - unique/total (0 when fewer than one
/// gram). This is the repetition ratio the paper's repetition filters use.
/// Counts in one pass over a flat, reused table: no allocation per gram.
double DuplicateNgramRatio(const std::vector<uint64_t>& gram_hashes);

/// Jaccard similarity between two hashed n-gram sets.
double JaccardSimilarity(std::vector<uint64_t> a, std::vector<uint64_t> b);

}  // namespace dj::text

#endif  // DJ_TEXT_NGRAM_H_
