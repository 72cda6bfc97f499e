#ifndef DJ_OPS_DEDUP_MINHASH_H_
#define DJ_OPS_DEDUP_MINHASH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace dj::ops {

/// MinHash signature computation (Broder et al.): `num_perm` independent
/// hash families approximated by SplitMix-derived multiply-xor permutations
/// over word-shingle hashes.
class MinHasher {
 public:
  explicit MinHasher(size_t num_perm = 128, uint64_t seed = 0x5117e5);

  size_t num_perm() const { return num_perm_; }

  /// Signature of a set of shingle hashes. Empty input yields a signature
  /// of all-max values (matches other empty docs only).
  std::vector<uint64_t> Signature(const std::vector<uint64_t>& shingles) const;

  /// Estimated Jaccard similarity between two signatures.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

 private:
  size_t num_perm_;
  std::vector<uint64_t> mul_;
  std::vector<uint64_t> xor_;
};

/// LSH banding over MinHash signatures: signatures agreeing on all rows of
/// any band become duplicate candidates. With b bands of r rows the match
/// probability at Jaccard s is 1-(1-s^r)^b.
struct LshParams {
  size_t bands = 16;
  size_t rows = 8;  // bands * rows must equal num_perm
};

/// Computes the band keys (hash per band) of a signature.
std::vector<uint64_t> LshBandKeys(const std::vector<uint64_t>& signature,
                                  const LshParams& params);

/// 64-bit SimHash (Charikar) over feature hashes.
uint64_t SimHash(const std::vector<uint64_t>& features);

/// Hamming distance between two 64-bit fingerprints.
int HammingDistance64(uint64_t a, uint64_t b);

/// Union-find over [0,n) used to cluster duplicate candidates.
class UnionFind {
 public:
  explicit UnionFind(size_t n);
  size_t Find(size_t x);
  void Union(size_t a, size_t b);

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
};

/// Clusters rows that share a bucket key and pass a similarity check: the
/// LSH banding of MinHash and SimHash, n-gram overlap's shingle samples,
/// and exact dedup with one key per row.
/// `keys` holds `keys_per_row` keys for each row, row-major; every distinct
/// key is one bucket, whichever band produced it. The (key, row) pairs are
/// partitioned by the top bits of the (multiplicatively mixed) key, and
/// each partition is sorted and scanned on its own worker, so a run of
/// equal keys is one bucket with its rows ascending. Inside a bucket,
/// `similar(i, j)` is asked for pairs i < j that the bucket has not already
/// connected (a bucket of m identical rows costs m - 1 checks); it runs
/// concurrently, so it must only read. The accepted pairs are merged into
/// one union-find on the calling thread. Its components are those of the
/// graph of all similar same-bucket pairs, whatever the partitioning.
UnionFind ClusterBuckets(const std::vector<uint64_t>& keys,
                         size_t keys_per_row, ThreadPool* pool,
                         const std::function<bool(size_t, size_t)>& similar);

}  // namespace dj::ops

#endif  // DJ_OPS_DEDUP_MINHASH_H_
