#include "text/ngram.h"

#include <algorithm>
#include <functional>

#include "common/hash.h"

namespace dj::text {

std::vector<uint64_t> HashedWordNgrams(const std::vector<std::string>& words,
                                       size_t n) {
  if (n == 0 || words.size() < n) return {};
  std::vector<uint64_t> word_hashes(words.size());
  for (size_t i = 0; i < words.size(); ++i) word_hashes[i] = Fnv1a64(words[i]);
  return HashedWordNgrams(word_hashes, n);
}

std::vector<uint64_t> HashedWordNgrams(const std::vector<uint64_t>& word_hashes,
                                       size_t n) {
  if (n == 0 || word_hashes.size() < n) return {};
  // Each window is the chain h = HashCombine(h, w) from h = 0x9e37...7c15.
  // HashCombine(h, w) adds SplitMix64(w) + 0x9e3779b97f4a7c15 to h's shifts
  // and xors the sum into h; that term depends only on the word, so it is
  // computed once per word, not once per window holding the word. Window i
  // reads slots i..i+n-1 and then overwrites slot i, which no later window
  // reads.
  std::vector<uint64_t> out(word_hashes.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = SplitMix64(word_hashes[i]) + 0x9e3779b97f4a7c15ULL;
  }
  for (size_t i = 0; i + n <= out.size(); ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t j = 0; j < n; ++j) h ^= out[i + j] + (h << 6) + (h >> 2);
    out[i] = h;
  }
  out.resize(word_hashes.size() - n + 1);
  return out;
}

std::vector<uint64_t> HashedCharNgrams(std::string_view s, size_t n) {
  std::vector<uint64_t> out;
  if (n == 0 || s.size() < n) return out;
  out.resize(s.size() - n + 1);
  const auto* bytes = reinterpret_cast<const unsigned char*>(s.data());
  for (size_t i = 0; i < out.size(); ++i) {
    // Fnv1a64(s.substr(i, n)), folded inline.
    uint64_t h = kFnv1a64Offset;
    for (size_t j = 0; j < n; ++j) {
      h ^= bytes[i + j];
      h *= kFnv1a64Prime;
    }
    out[i] = h;
  }
  return out;
}

namespace {

/// Slots of the per-thread table DistinctCount keeps between calls
/// (512 KiB); longer inputs get a table of their own, freed on return.
constexpr size_t kKeptSlots = size_t{1} << 16;

/// Number of distinct values in `keys`, by one pass over a flat
/// open-addressing table of at least 2x `keys.size()` slots with linear
/// probing. Slot value 0 marks "empty", so the key 0 is tracked outside the
/// table. The probe index is SplitMix64 of the key: FNV low bits are weak.
size_t DistinctCount(const std::vector<uint64_t>& keys) {
  size_t slots = 16;
  while (slots < 2 * keys.size()) slots <<= 1;
  thread_local std::vector<uint64_t> kept;
  std::vector<uint64_t> own;
  std::vector<uint64_t>& table = slots <= kKeptSlots ? kept : own;
  if (table.size() < slots) table.resize(slots);
  std::fill_n(table.begin(), slots, 0);
  const size_t mask = slots - 1;
  size_t distinct = 0;
  bool saw_zero = false;
  for (uint64_t key : keys) {
    if (key == 0) {
      saw_zero = true;
      continue;
    }
    size_t i = SplitMix64(key) & mask;
    while (table[i] != key) {
      if (table[i] == 0) {
        table[i] = key;
        ++distinct;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  return distinct + (saw_zero ? 1 : 0);
}

}  // namespace

double DuplicateNgramRatio(const std::vector<uint64_t>& gram_hashes) {
  if (gram_hashes.empty()) return 0.0;
  return 1.0 - static_cast<double>(DistinctCount(gram_hashes)) /
                   static_cast<double>(gram_hashes.size());
}

namespace {

/// `v` itself when it is strictly increasing (a sorted set), else a sorted,
/// deduplicated copy of it held in `*copy`.
std::span<const uint64_t> AsSortedSet(std::span<const uint64_t> v,
                                      std::vector<uint64_t>* copy) {
  if (std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
      v.end()) {
    return v;
  }
  copy->assign(v.begin(), v.end());
  std::sort(copy->begin(), copy->end());
  copy->erase(std::unique(copy->begin(), copy->end()), copy->end());
  return *copy;
}

}  // namespace

double JaccardSimilarity(std::span<const uint64_t> a,
                         std::span<const uint64_t> b) {
  if (a.empty() && b.empty()) return 1.0;
  std::vector<uint64_t> a_copy, b_copy;
  a = AsSortedSet(a, &a_copy);
  b = AsSortedSet(b, &b_copy);
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace dj::text
