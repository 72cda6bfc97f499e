#include "ops/dedup/minhash.h"

#include <algorithm>
#include <compare>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/swar.h"

namespace dj::ops {

MinHasher::MinHasher(size_t num_perm, uint64_t seed) : num_perm_(num_perm) {
  mul_.reserve(num_perm_);
  xor_.reserve(num_perm_);
  uint64_t state = seed;
  for (size_t i = 0; i < num_perm_; ++i) {
    state = SplitMix64(state);
    mul_.push_back(state | 1);  // odd multiplier => bijection mod 2^64
    state = SplitMix64(state);
    xor_.push_back(state);
  }
}

namespace {

/// Permutations [begin, num_perm) of the signature, permutation-major with
/// the shingle loop unrolled 4-wide onto independent min accumulators.
/// mul[i]/xr[i] load once per permutation instead of once per (shingle,
/// permutation) pair, and the four hash chains overlap their multiply
/// latency. min is commutative and associative, so the folded result
/// equals the reference loop exactly.
void BatchedSignature(const std::vector<uint64_t>& shingles,
                      const uint64_t* mul, const uint64_t* xr, size_t begin,
                      size_t num_perm, uint64_t* sig) {
  const size_t batch_end = shingles.size() & ~size_t{3};
  for (size_t i = begin; i < num_perm; ++i) {
    const uint64_t mul_i = mul[i];
    const uint64_t xor_i = xr[i];
    uint64_t m0 = std::numeric_limits<uint64_t>::max();
    uint64_t m1 = m0, m2 = m0, m3 = m0;
    for (size_t s = 0; s < batch_end; s += 4) {
      uint64_t h0 = (shingles[s] ^ xor_i) * mul_i;
      uint64_t h1 = (shingles[s + 1] ^ xor_i) * mul_i;
      uint64_t h2 = (shingles[s + 2] ^ xor_i) * mul_i;
      uint64_t h3 = (shingles[s + 3] ^ xor_i) * mul_i;
      h0 ^= h0 >> 29;
      h1 ^= h1 >> 29;
      h2 ^= h2 >> 29;
      h3 ^= h3 >> 29;
      m0 = std::min(m0, h0);
      m1 = std::min(m1, h1);
      m2 = std::min(m2, h2);
      m3 = std::min(m3, h3);
    }
    uint64_t m = std::min(std::min(m0, m1), std::min(m2, m3));
    for (size_t s = batch_end; s < shingles.size(); ++s) {
      uint64_t h = (shingles[s] ^ xor_i) * mul_i;
      h ^= h >> 29;
      m = std::min(m, h);
    }
    sig[i] = m;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define DJ_MINHASH_HAVE_AVX512 1

/// Eight 64-bit lanes. Inside a target("avx512f,avx512dq") function GCC
/// compiles their *, ^, >> and compare-select to vpmullq, vpxorq, vpsrlq
/// and vpminuq, with no intrinsics.
typedef uint64_t U64x8 __attribute__((vector_size(64)));

/// Probed once, on the first signature; the binary itself targets baseline
/// x86-64.
bool CpuHasAvx512() {
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq");
  return has;
}

/// Signature entries [0, 8 * kVectors) of `sig`: each shingle is broadcast
/// once and hashed under 8 * kVectors permutations, each vector folding
/// into its own min accumulator.
template <size_t kVectors>
__attribute__((target("avx512f,avx512dq"))) void MinBlockAvx512(
    const uint64_t* shingles, size_t count, const uint64_t* mul,
    const uint64_t* xr, uint64_t* sig) {
  U64x8 m[kVectors], x[kVectors], acc[kVectors];
  for (size_t v = 0; v < kVectors; ++v) {
    std::memcpy(&m[v], mul + 8 * v, sizeof(U64x8));
    std::memcpy(&x[v], xr + 8 * v, sizeof(U64x8));
    acc[v] = ~U64x8{};
  }
  for (size_t s = 0; s < count; ++s) {
    for (size_t v = 0; v < kVectors; ++v) {
      U64x8 h = (shingles[s] ^ x[v]) * m[v];
      h ^= h >> 29;
      acc[v] = h < acc[v] ? h : acc[v];
    }
  }
  for (size_t v = 0; v < kVectors; ++v) {
    std::memcpy(sig + 8 * v, &acc[v], sizeof(U64x8));
  }
}

/// Fills the signature's permutations 32 and then 8 at a time; returns how
/// many it filled (num_perm rounded down to a multiple of 8).
__attribute__((target("avx512f,avx512dq"))) size_t SignatureAvx512(
    const std::vector<uint64_t>& shingles, const uint64_t* mul,
    const uint64_t* xr, size_t num_perm, uint64_t* sig) {
  size_t i = 0;
  for (; i + 32 <= num_perm; i += 32) {
    MinBlockAvx512<4>(shingles.data(), shingles.size(), mul + i, xr + i,
                      sig + i);
  }
  for (; i + 8 <= num_perm; i += 8) {
    MinBlockAvx512<1>(shingles.data(), shingles.size(), mul + i, xr + i,
                      sig + i);
  }
  return i;
}
#endif

}  // namespace

std::vector<uint64_t> MinHasher::Signature(
    const std::vector<uint64_t>& shingles) const {
  std::vector<uint64_t> sig(num_perm_, std::numeric_limits<uint64_t>::max());
  if (shingles.empty()) return sig;
  const swar::Level level = swar::ActiveLevel();
  if (level == swar::Level::kScalar) {
    // Reference loop nest (shingle-major), kept as the differential twin.
    for (uint64_t shingle : shingles) {
      for (size_t i = 0; i < num_perm_; ++i) {
        uint64_t h = (shingle ^ xor_[i]) * mul_[i];
        h ^= h >> 29;
        if (h < sig[i]) sig[i] = h;
      }
    }
    return sig;
  }
  size_t done = 0;
#ifdef DJ_MINHASH_HAVE_AVX512
  if (level == swar::CompiledLevel() && CpuHasAvx512()) {
    done = SignatureAvx512(shingles, mul_.data(), xor_.data(), num_perm_,
                           sig.data());
  }
#endif
  BatchedSignature(shingles, mul_.data(), xor_.data(), done, num_perm_,
                   sig.data());
  return sig;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  size_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

void LshBandKeys(const std::vector<uint64_t>& signature,
                 const LshParams& params, uint64_t* keys) {
  for (size_t b = 0; b < params.bands; ++b) {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ b;
    for (size_t r = 0; r < params.rows; ++r) {
      size_t idx = b * params.rows + r;
      if (idx >= signature.size()) break;
      h = HashCombine(h, signature[idx]);
    }
    keys[b] = h;
  }
}

uint64_t SimHash(const std::vector<uint64_t>& features) {
  int counts[64] = {0};
  for (uint64_t f : features) {
    uint64_t h = SplitMix64(f);
    for (int bit = 0; bit < 64; ++bit) {
      counts[bit] += (h >> bit) & 1 ? 1 : -1;
    }
  }
  uint64_t out = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (counts[bit] > 0) out |= uint64_t{1} << bit;
  }
  return out;
}

int HammingDistance64(uint64_t a, uint64_t b) {
  return __builtin_popcountll(a ^ b);
}

UnionFind::UnionFind(size_t n) : parent_(n), rank_(n, 0) {
  for (size_t i = 0; i < n; ++i) parent_[i] = i;
}

size_t UnionFind::Find(size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a), rb = Find(b);
  if (ra == rb) return;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
}

namespace {

/// log2 of the partition count: enough partitions to balance a 4-8 wide
/// pool, few enough that each sorts a cache-friendly slice.
constexpr unsigned kPartitionBits = 6;
constexpr size_t kPartitions = size_t{1} << kPartitionBits;

struct KeyedRow {
  uint64_t key;
  size_t row;
  friend auto operator<=>(const KeyedRow&, const KeyedRow&) = default;
};

/// Fibonacci hashing: SimHash band keys are small integers, so the raw top
/// bits would put every pair in partition 0.
size_t PartitionOf(uint64_t key) {
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                             (64 - kPartitionBits));
}

/// Checks the rows of one bucket (`m` >= 2 entries, rows ascending) and
/// appends an edge for each similar pair that joins two of its components.
void VerifyBucket(const KeyedRow* members, size_t m,
                  const std::function<bool(size_t, size_t)>& similar,
                  std::vector<std::pair<size_t, size_t>>* edges) {
  if (m == 2) {
    if (similar(members[0].row, members[1].row)) {
      edges->emplace_back(members[0].row, members[1].row);
    }
    return;
  }
  UnionFind local(m);
  size_t components = m;
  for (size_t a = 0; a + 1 < m && components > 1; ++a) {
    for (size_t b = a + 1; b < m && components > 1; ++b) {
      if (local.Find(a) == local.Find(b)) continue;
      if (!similar(members[a].row, members[b].row)) continue;
      local.Union(a, b);
      --components;
      edges->emplace_back(members[a].row, members[b].row);
    }
  }
}

}  // namespace

UnionFind ClusterBuckets(const std::vector<uint64_t>& keys,
                         size_t keys_per_row, ThreadPool* pool,
                         const std::function<bool(size_t, size_t)>& similar) {
  const size_t num_rows = keys_per_row == 0 ? 0 : keys.size() / keys_per_row;
  UnionFind uf(num_rows);
  if (num_rows < 2) return uf;

  // Counting sort of the (key, row) pairs into partitions: each chunk of
  // rows counts its pairs per partition, the counts become per-chunk write
  // offsets, and each chunk scatters its own pairs.
  const size_t chunks = std::min(num_rows, PoolWidth(pool) * 4);
  const size_t chunk_rows = (num_rows + chunks - 1) / chunks;
  std::vector<size_t> offsets(chunks * kPartitions, 0);
  auto chunk_keys = [&](size_t c, auto&& fn) {
    const size_t end = std::min(num_rows, (c + 1) * chunk_rows);
    for (size_t row = c * chunk_rows; row < end; ++row) {
      for (size_t k = 0; k < keys_per_row; ++k) {
        fn(keys[row * keys_per_row + k], row);
      }
    }
  };
  ParallelFor(pool, chunks, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      size_t* counts = &offsets[c * kPartitions];
      chunk_keys(c, [&](uint64_t key, size_t) { ++counts[PartitionOf(key)]; });
    }
  });
  std::vector<size_t> partition_begin(kPartitions + 1, 0);
  size_t total = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    partition_begin[p] = total;
    for (size_t c = 0; c < chunks; ++c) {
      size_t count = offsets[c * kPartitions + p];
      offsets[c * kPartitions + p] = total;
      total += count;
    }
  }
  partition_begin[kPartitions] = total;
  std::vector<KeyedRow> keyed(total);
  ParallelFor(pool, chunks, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      size_t* next = &offsets[c * kPartitions];
      chunk_keys(c, [&](uint64_t key, size_t row) {
        keyed[next[PartitionOf(key)]++] = {key, row};
      });
    }
  });

  // Each partition holds every pair of its keys: sort it, and verify each
  // run of equal keys (one bucket) on the worker. A row that carries one
  // key twice is one member of that bucket.
  std::vector<std::vector<std::pair<size_t, size_t>>> edges(kPartitions);
  ParallelFor(pool, kPartitions, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      KeyedRow* begin = keyed.data() + partition_begin[p];
      KeyedRow* end = keyed.data() + partition_begin[p + 1];
      std::sort(begin, end);
      end = std::unique(begin, end);
      for (KeyedRow* run = begin; run != end;) {
        KeyedRow* run_end = run + 1;
        while (run_end != end && run_end->key == run->key) ++run_end;
        if (run_end - run >= 2) {
          VerifyBucket(run, static_cast<size_t>(run_end - run), similar,
                       &edges[p]);
        }
        run = run_end;
      }
    }
  });
  for (const auto& partition_edges : edges) {
    for (const auto& [a, b] : partition_edges) uf.Union(a, b);
  }
  return uf;
}

}  // namespace dj::ops
