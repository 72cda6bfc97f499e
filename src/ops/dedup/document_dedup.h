#ifndef DJ_OPS_DEDUP_DOCUMENT_DEDUP_H_
#define DJ_OPS_DEDUP_DOCUMENT_DEDUP_H_

#include <string>
#include <vector>

#include "common/hash.h"
#include "ops/dedup/minhash.h"
#include "ops/op_base.h"

namespace dj::ops {

/// document_exact_deduplicator: removes byte-identical documents (after
/// optional lowercasing / whitespace collapsing) keeping the first
/// occurrence. Params: lowercase (bool, default true), ignore_whitespace
/// (bool, default true).
class DocumentExactDeduplicator : public Deduplicator {
 public:
  static const OpDeclaration& Declaration();
  explicit DocumentExactDeduplicator(const json::Value& config);

  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) const override;

  /// Fingerprint() of `text` after this OP's normalization (A-Z lowered
  /// when `lowercase`; ' ', '\t', '\n' and '\r' dropped when
  /// `ignore_whitespace`), in one pass that builds no normalized copy.
  Fingerprint128 FingerprintOf(std::string_view text) const;

 private:
  bool lowercase_;
  bool ignore_whitespace_;
};

/// document_minhash_deduplicator: near-duplicate removal with MinHash-LSH
/// over word shingles (paper: "hash-based deduplication", Broder MinHash).
/// Candidates from shared LSH bands are verified by signature similarity
/// and clustered with union-find; the first document of each cluster
/// survives. Params: num_perm (128), shingle_size (5),
/// jaccard_threshold (0.7), lowercase (true).
class DocumentMinHashDeduplicator : public Deduplicator {
 public:
  static const OpDeclaration& Declaration();
  explicit DocumentMinHashDeduplicator(const json::Value& config);

  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) const override;

 private:
  int64_t num_perm_;
  int64_t shingle_size_;
  double threshold_;
  bool lowercase_;
  MinHasher hasher_;
  LshParams lsh_;
};

/// document_simhash_deduplicator: near-duplicate removal with 64-bit
/// SimHash over word 3-grams (paper: Charikar similarity estimation).
/// Fingerprints within `hamming_threshold` bits (default 4) are duplicates;
/// candidate pairs come from 4 x 16-bit band buckets, which is exact for
/// thresholds <= 3 and high-recall at 4.
class DocumentSimHashDeduplicator : public Deduplicator {
 public:
  static const OpDeclaration& Declaration();
  explicit DocumentSimHashDeduplicator(const json::Value& config);

  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) const override;

 private:
  int64_t shingle_size_;
  int64_t hamming_threshold_;
};

/// ngram_overlap_deduplicator: vector-space duplicate detection — documents
/// whose exact word-n-gram Jaccard similarity with an earlier document
/// reaches `jaccard_threshold` (default 0.8) are removed. Candidates are
/// rows that share one of their 24 smallest shingles, bucketed through
/// ClusterBuckets, so typical corpora avoid the quadratic comparison.
/// Params: shingle_size (3).
class NgramOverlapDeduplicator : public Deduplicator {
 public:
  static const OpDeclaration& Declaration();
  explicit NgramOverlapDeduplicator(const json::Value& config);

  Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) const override;

 private:
  int64_t shingle_size_;
  double threshold_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_DEDUP_DOCUMENT_DEDUP_H_
