#include "ops/dedup/document_dedup.h"

#include <algorithm>
#include <limits>

#include "obs/span.h"
#include "text/ngram.h"
#include "text/tokenizer.h"

namespace dj::ops {
namespace {

std::string_view RowText(data::RowRef row, const std::string& key) {
  const json::Value* v = row.Get(key);
  if (v == nullptr || !v->is_string()) return {};
  return v->as_string();
}

/// Selects survivors: for each union-find cluster the smallest row index is
/// kept; records removed->kept pairs. Survivors are moved, not copied.
data::Dataset CollectSurvivors(data::Dataset ds, UnionFind* uf,
                               std::vector<DuplicatePair>* pairs,
                               double similarity) {
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  size_t n = ds.NumRows();
  std::vector<size_t> cluster_first(n, kNone);
  std::vector<size_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t& first = cluster_first[uf->Find(i)];
    if (first == kNone) {
      first = i;
      keep.push_back(i);
    } else if (pairs != nullptr) {
      pairs->push_back({first, i, similarity});
    }
  }
  return std::move(ds).TakeSelect(keep);
}

}  // namespace

// ------------------------------------------- DocumentExactDeduplicator --

const OpDeclaration& DocumentExactDeduplicator::Declaration() {
  static const OpDeclaration d{
      OpSchema("document_exact_deduplicator", OpKind::kDeduplicator)
          .Bool("lowercase", true, "lowercase before fingerprinting")
          .Bool("ignore_whitespace", true,
                "collapse whitespace before fingerprinting"),
      OpEffects().Reads("@text_key").ProducesStat("doc_hash")};
  return d;
}

DocumentExactDeduplicator::DocumentExactDeduplicator(const json::Value& config)
    : Deduplicator(Declaration(), config),
      lowercase_(Param<bool>("lowercase")),
      ignore_whitespace_(Param<bool>("ignore_whitespace")) {}

Fingerprint128 DocumentExactDeduplicator::FingerprintOf(
    std::string_view text) const {
  FingerprintBuilder fp;
  for (unsigned char c : text) {
    if (ignore_whitespace_ &&
        (c == ' ' || c == '\t' || c == '\n' || c == '\r')) {
      continue;
    }
    if (lowercase_ && c >= 'A' && c <= 'Z') c += 'a' - 'A';
    fp.Add(c);
  }
  return fp.Finish();
}

Result<data::Dataset> DocumentExactDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) const {
  size_t n = dataset.NumRows();
  std::vector<Fingerprint128> fingerprints(n);
  std::vector<uint64_t> keys(n);
  dataset.EnsureColumn(data::kStatsField);
  {
    DJ_OBS_SPAN("exact_dedup.compute_hashes");
    DJ_RETURN_IF_ERROR(ForEachIndex(pool, n, [&](size_t i) {
      data::RowRef row = dataset.Row(i);
      Fingerprint128 fp = FingerprintOf(RowText(row, text_key()));
      fingerprints[i] = fp;
      keys[i] = fp.lo;
      // Also expose the hash as a stat for tracing and analysis.
      return WriteStatSorted(row, "doc_hash", json::Value(FingerprintHex(fp)));
    }));
  }
  DJ_OBS_SPAN("exact_dedup.select_survivors");
  UnionFind uf = ClusterBuckets(keys, 1, pool, [&](size_t i, size_t j) {
    return fingerprints[i] == fingerprints[j];
  });
  return CollectSurvivors(std::move(dataset), &uf, pairs, 1.0);
}

// ----------------------------------------- DocumentMinHashDeduplicator --

const OpDeclaration& DocumentMinHashDeduplicator::Declaration() {
  static const OpDeclaration d{
      OpSchema("document_minhash_deduplicator", OpKind::kDeduplicator)
          .Int("num_perm", 128, 8, 4096, "MinHash permutations")
          .Int("shingle_size", 5, 1, kParamInf, "word shingle length")
          .Double("jaccard_threshold", 0.7, 0, 1,
                  "similarity above which documents are duplicates")
          .Bool("lowercase", true, "lowercase before shingling"),
      OpEffects().Reads("@text_key")};
  return d;
}

DocumentMinHashDeduplicator::DocumentMinHashDeduplicator(
    const json::Value& config)
    : Deduplicator(Declaration(), config),
      num_perm_(Param<int64_t>("num_perm")),
      shingle_size_(Param<int64_t>("shingle_size")),
      threshold_(Param<double>("jaccard_threshold")),
      lowercase_(Param<bool>("lowercase")),
      hasher_(static_cast<size_t>(num_perm_)) {
  // Pick (bands, rows): rows such that the LSH S-curve crosses near the
  // Jaccard threshold; never more rows than permutations, so there is at
  // least one band.
  lsh_.rows = std::min<size_t>(
      threshold_ >= 0.85 ? 16 : threshold_ >= 0.6 ? 8 : 4,
      static_cast<size_t>(num_perm_));
  lsh_.bands = static_cast<size_t>(num_perm_) / lsh_.rows;
}

Result<data::Dataset> DocumentMinHashDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) const {
  size_t n = dataset.NumRows();
  const size_t bands = lsh_.bands;
  std::vector<std::vector<uint64_t>> signatures(n);
  std::vector<uint64_t> keys(n * bands);
  {
    DJ_OBS_SPAN("minhash.compute_signatures");
    ParallelFor(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        std::vector<uint64_t> words =
            text::WordHashes(RowText(dataset.Row(i), text_key()), lowercase_);
        std::vector<uint64_t> shingles =
            text::HashedWordNgrams(words, static_cast<size_t>(shingle_size_));
        if (shingles.empty() && !words.empty()) {
          // Short docs: fall back to unigram shingles.
          shingles = text::HashedWordNgrams(words, 1);
        }
        signatures[i] = hasher_.Signature(shingles);
        LshBandKeys(signatures[i], lsh_, keys.data() + i * bands);
      }
    });
  }
  // LSH banding: bucket rows by band keys, verify candidates.
  DJ_OBS_SPAN("minhash.lsh_candidates");
  UnionFind uf = ClusterBuckets(keys, bands, pool, [&](size_t i, size_t j) {
    return MinHasher::EstimateJaccard(signatures[i], signatures[j]) >=
           threshold_;
  });
  return CollectSurvivors(std::move(dataset), &uf, pairs, threshold_);
}

// ----------------------------------------- DocumentSimHashDeduplicator --

const OpDeclaration& DocumentSimHashDeduplicator::Declaration() {
  static const OpDeclaration d{
      OpSchema("document_simhash_deduplicator", OpKind::kDeduplicator)
          .Int("shingle_size", 3, 1, kParamInf, "word shingle length")
          .Int("hamming_threshold", 4, 0, 64,
               "maximum fingerprint bit distance for duplicates"),
      OpEffects().Reads("@text_key")};
  return d;
}

DocumentSimHashDeduplicator::DocumentSimHashDeduplicator(
    const json::Value& config)
    : Deduplicator(Declaration(), config),
      shingle_size_(Param<int64_t>("shingle_size")),
      hamming_threshold_(Param<int64_t>("hamming_threshold")) {}

Result<data::Dataset> DocumentSimHashDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) const {
  size_t n = dataset.NumRows();
  // Bucket by each of the four 16-bit bands; verify Hamming distance.
  constexpr size_t kBands = 4;
  std::vector<uint64_t> fingerprints(n);
  std::vector<uint64_t> keys(n * kBands);
  ParallelFor(pool, n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fingerprints[i] = SimHash(text::HashedWordNgrams(
          text::WordHashes(RowText(dataset.Row(i), text_key()),
                           /*lowercase=*/true),
          static_cast<size_t>(shingle_size_)));
      for (size_t band = 0; band < kBands; ++band) {
        keys[i * kBands + band] = ((fingerprints[i] >> (band * 16)) & 0xFFFF) |
                                  (static_cast<uint64_t>(band) << 32);
      }
    }
  });
  UnionFind uf = ClusterBuckets(keys, kBands, pool, [&](size_t i, size_t j) {
    return HammingDistance64(fingerprints[i], fingerprints[j]) <=
           hamming_threshold_;
  });
  return CollectSurvivors(std::move(dataset), &uf, pairs, 1.0);
}

// ------------------------------------------- NgramOverlapDeduplicator --

const OpDeclaration& NgramOverlapDeduplicator::Declaration() {
  static const OpDeclaration d{
      OpSchema("ngram_overlap_deduplicator", OpKind::kDeduplicator)
          .Int("shingle_size", 3, 1, kParamInf, "word n-gram length")
          .Double("jaccard_threshold", 0.8, 0, 1,
                  "exact shingle-set similarity threshold"),
      OpEffects().Reads("@text_key")};
  return d;
}

NgramOverlapDeduplicator::NgramOverlapDeduplicator(const json::Value& config)
    : Deduplicator(Declaration(), config),
      shingle_size_(Param<int64_t>("shingle_size")),
      threshold_(Param<double>("jaccard_threshold")) {}

Result<data::Dataset> NgramOverlapDeduplicator::Deduplicate(
    data::Dataset dataset, ThreadPool* pool,
    std::vector<DuplicatePair>* pairs) const {
  size_t n = dataset.NumRows();
  // Bucket keys: each row's first kIndexPerDoc sorted shingles, a
  // deterministic min-K sample (identical documents sample identical
  // shingles), padded with repeats of the first. A row without shingles
  // gets a key of its own, so short rows never pile into one bucket.
  constexpr size_t kIndexPerDoc = 24;
  std::vector<std::vector<uint64_t>> shingles(n);
  std::vector<uint64_t> keys(n * kIndexPerDoc);
  ParallelFor(pool, n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      std::vector<uint64_t>& grams = shingles[i];
      grams = text::HashedWordNgrams(
          text::WordHashes(RowText(dataset.Row(i), text_key()),
                           /*lowercase=*/true),
          static_cast<size_t>(shingle_size_));
      std::sort(grams.begin(), grams.end());
      grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
      const size_t take = std::min(grams.size(), kIndexPerDoc);
      uint64_t* row_keys = keys.data() + i * kIndexPerDoc;
      std::copy_n(grams.begin(), take, row_keys);
      std::fill(row_keys + take, row_keys + kIndexPerDoc,
                take == 0 ? SplitMix64(i) : grams[0]);
    }
  });
  UnionFind uf = ClusterBuckets(
      keys, kIndexPerDoc, pool, [&](size_t i, size_t j) {
        return !shingles[i].empty() && !shingles[j].empty() &&
               text::JaccardSimilarity(shingles[i], shingles[j]) >=
                   threshold_;
      });
  return CollectSurvivors(std::move(dataset), &uf, pairs, threshold_);
}

}  // namespace dj::ops
