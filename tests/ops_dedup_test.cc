#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "data/io.h"
#include "json/parser.h"
#include "ops/dedup/document_dedup.h"
#include "ops/dedup/granular_dedup.h"
#include "ops/dedup/minhash.h"
#include "ops/registry.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "workload/generator.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text = "{}") {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

data::Dataset Texts(std::vector<std::string> texts) {
  return data::Dataset::FromTexts(std::move(texts));
}

// ------------------------------------------------------------ minhash ----

TEST(MinHasherTest, IdenticalSetsIdenticalSignatures) {
  MinHasher hasher(64);
  std::vector<uint64_t> shingles{1, 2, 3, 4, 5};
  EXPECT_EQ(hasher.Signature(shingles), hasher.Signature(shingles));
}

TEST(MinHasherTest, JaccardEstimateTracksTruth) {
  MinHasher hasher(256);
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 100; ++i) a.push_back(i);
  for (uint64_t i = 20; i < 120; ++i) b.push_back(i);  // true J = 80/120
  double est = MinHasher::EstimateJaccard(hasher.Signature(a),
                                          hasher.Signature(b));
  EXPECT_NEAR(est, 80.0 / 120.0, 0.12);
}

TEST(MinHasherTest, DisjointSetsLowSimilarity) {
  MinHasher hasher(128);
  std::vector<uint64_t> a{1, 2, 3}, b{100, 200, 300};
  EXPECT_LT(MinHasher::EstimateJaccard(hasher.Signature(a),
                                       hasher.Signature(b)),
            0.15);
}

// The signature's body depends on the dispatch level: the shingle-major
// reference loop at kScalar, the batched loop at kSwar, and at the compiled
// level the 512-bit body where the CPU has AVX-512F and DQ. Its value must
// not. The permutation counts run the 32-wide blocks, the 8-wide blocks and
// tails of 1 to 7 permutations; the shingle sets hold 0, UINT64_MAX and
// repeats, and the more permutations, the fewer shingles, to bound the work.
TEST(MinHasherTest, SignatureIsTheSameAtEveryLevel) {
  const size_t kPerms[] = {8, 12, 31, 32, 33, 40, 128, 4096};
  std::vector<MinHasher> hashers;
  for (size_t num_perm : kPerms) hashers.emplace_back(num_perm, num_perm);
  const swar::Level levels[] = {swar::Level::kScalar, swar::Level::kSwar,
                                swar::CompiledLevel()};
  std::mt19937_64 rng(0x516E);
  for (size_t c = 0; c < 10000; ++c) {
    const MinHasher& hasher = hashers[c % hashers.size()];
    const size_t max_size =
        std::min<size_t>(2000, (size_t{1} << 14) / hasher.num_perm());
    std::vector<uint64_t> shingles(c % 97 == 0 ? 0 : rng() % (max_size + 1));
    for (size_t s = 0; s < shingles.size(); ++s) {
      const uint64_t pick = rng() % 16;
      shingles[s] = pick == 0   ? 0
                    : pick == 1 ? ~uint64_t{0}
                    : pick <= 3 && s > 0 ? shingles[rng() % s]
                                         : rng();
    }
    std::vector<std::vector<uint64_t>> signatures;
    for (swar::Level level : levels) {
      swar::ScopedLevel pin(level);
      signatures.push_back(hasher.Signature(shingles));
    }
    ASSERT_EQ(signatures[0].size(), hasher.num_perm());
    ASSERT_EQ(signatures[1], signatures[0])
        << "kSwar, num_perm " << hasher.num_perm() << ", " << shingles.size()
        << " shingles";
    ASSERT_EQ(signatures[2], signatures[0])
        << swar::LevelName(levels[2]) << ", num_perm " << hasher.num_perm()
        << ", " << shingles.size() << " shingles";
  }
}

TEST(LshTest, BandKeysMatchForEqualSignatures) {
  MinHasher hasher(64);
  LshParams params{8, 8};
  std::vector<uint64_t> shingles{7, 8, 9};
  std::vector<uint64_t> a(params.bands), b(params.bands);
  LshBandKeys(hasher.Signature(shingles), params, a.data());
  LshBandKeys(hasher.Signature(shingles), params, b.data());
  EXPECT_EQ(a, b);
}

// Each band's key is the HashCombine chain of its rows, written to its own
// slot and no further.
TEST(LshTest, BandKeysAreTheHashCombineChainOfEachBand) {
  MinHasher hasher(128);
  const std::vector<uint64_t> signature = hasher.Signature({1, 2, 3, 4, 5});
  for (const LshParams& params :
       {LshParams{16, 8}, LshParams{8, 16}, LshParams{32, 4}}) {
    std::vector<uint64_t> keys(params.bands + 1, 0x5e47);
    LshBandKeys(signature, params, keys.data());
    for (size_t b = 0; b < params.bands; ++b) {
      uint64_t h = 0x9e3779b97f4a7c15ULL ^ b;
      for (size_t r = 0; r < params.rows; ++r) {
        h = HashCombine(h, signature[b * params.rows + r]);
      }
      EXPECT_EQ(keys[b], h) << params.bands << "x" << params.rows << " " << b;
    }
    EXPECT_EQ(keys[params.bands], 0x5e47u);
  }
}

TEST(SimHashTest, SimilarFeatureSetsCloseInHamming) {
  std::vector<uint64_t> a, b;
  for (uint64_t i = 0; i < 200; ++i) {
    a.push_back(i);
    b.push_back(i);
  }
  b[0] = 9999;  // tiny perturbation
  uint64_t ha = SimHash(a), hb = SimHash(b);
  EXPECT_LE(HammingDistance64(ha, hb), 6);
  std::vector<uint64_t> c{50000, 50001, 50002, 50003};
  EXPECT_GT(HammingDistance64(ha, SimHash(c)), 10);
}

TEST(UnionFindTest, UnionsAndFinds) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(3, 4);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_EQ(uf.Find(3), uf.Find(4));
  EXPECT_NE(uf.Find(0), uf.Find(3));
  uf.Union(1, 3);
  EXPECT_EQ(uf.Find(0), uf.Find(4));
}

// ------------------------------------------------------ bucketing ----

/// Each row's smallest component member.
std::vector<size_t> ComponentLabels(UnionFind* uf, size_t n) {
  std::vector<size_t> first(n, n), label(n);
  for (size_t i = 0; i < n; ++i) {
    size_t& f = first[uf->Find(i)];
    if (f == n) f = i;
    label[i] = f;
  }
  return label;
}

/// The bucketing ClusterBuckets replaced: one unordered_map over every key,
/// then each bucket's pairs checked into one union-find unless already
/// connected.
std::vector<size_t> MapBucketComponents(
    const std::vector<uint64_t>& keys, size_t keys_per_row,
    const std::function<bool(size_t, size_t)>& similar) {
  size_t n = keys.size() / keys_per_row;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < keys_per_row; ++k) {
      buckets[keys[i * keys_per_row + k]].push_back(i);
    }
  }
  UnionFind uf(n);
  for (const auto& [key, members] : buckets) {
    for (size_t a = 0; a + 1 < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        size_t i = members[a], j = members[b];
        if (uf.Find(i) != uf.Find(j) && similar(i, j)) uf.Union(i, j);
      }
    }
  }
  return ComponentLabels(&uf, n);
}

/// Asserts that ClusterBuckets, with no pool and with four workers, finds
/// the components of the map reference; returns them.
std::vector<size_t> ExpectMatchesMapReference(
    const std::vector<uint64_t>& keys, size_t keys_per_row,
    const std::function<bool(size_t, size_t)>& similar) {
  std::vector<size_t> expected =
      MapBucketComponents(keys, keys_per_row, similar);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    UnionFind uf = ClusterBuckets(keys, keys_per_row, p, similar);
    EXPECT_EQ(ComponentLabels(&uf, expected.size()), expected);
  }
  return expected;
}

TEST(ClusterBucketsTest, MatchesMapReferenceWithOneLargeBucket) {
  // 600 rows, 4 keys each, from a small key space so buckets collide; the
  // last 200 rows are "empty documents" whose identical signatures share
  // all four keys (one large bucket per band). A row's signature is a
  // small random value; two rows are similar when the values are close,
  // which is not transitive, so the components depend on every check.
  constexpr size_t kRows = 600, kEmpty = 200, kKeys = 4;
  Rng rng(11);
  std::vector<uint64_t> keys(kRows * kKeys);
  std::vector<uint64_t> signature(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    bool empty = i >= kRows - kEmpty;
    signature[i] = empty ? 1000 : rng.NextBelow(900);
    for (size_t k = 0; k < kKeys; ++k) {
      keys[i * kKeys + k] =
          empty ? (k << 40) : (k << 40) | rng.NextBelow(60);
    }
  }
  std::vector<size_t> expected =
      ExpectMatchesMapReference(keys, kKeys, [&](size_t i, size_t j) {
        uint64_t a = signature[i], b = signature[j];
        return (a > b ? a - b : b - a) <= 12;
      });
  // Sanity: the corpus has both merged and separate components.
  EXPECT_EQ(expected[kRows - 1], kRows - kEmpty);
  EXPECT_NE(expected[0], expected[kRows - kEmpty]);
}

TEST(ClusterBucketsTest, MatchesMapReferenceOnMinHashBands) {
  // The MinHash dedup's own input: 16 band keys of 8 rows per signature,
  // verified by estimated Jaccard >= 0.7. 150 base shingle sets, 100 near
  // copies (4 of 40 shingles replaced) and 50 empty documents, whose
  // all-max signatures fill one bucket per band.
  MinHasher hasher(128);
  LshParams lsh{16, 8};
  Rng rng(12);
  std::vector<std::vector<uint64_t>> bases(150);
  for (auto& base : bases) {
    for (int s = 0; s < 40; ++s) base.push_back(rng.Next());
  }
  std::vector<std::vector<uint64_t>> signatures;
  for (const auto& base : bases) signatures.push_back(hasher.Signature(base));
  for (int i = 0; i < 100; ++i) {
    std::vector<uint64_t> copy = bases[rng.NextBelow(bases.size())];
    for (int s = 0; s < 4; ++s) copy[rng.NextBelow(copy.size())] = rng.Next();
    signatures.push_back(hasher.Signature(copy));
  }
  for (int i = 0; i < 50; ++i) signatures.push_back(hasher.Signature({}));
  std::vector<uint64_t> keys(signatures.size() * lsh.bands);
  for (size_t i = 0; i < signatures.size(); ++i) {
    LshBandKeys(signatures[i], lsh, keys.data() + i * lsh.bands);
  }
  std::vector<size_t> expected =
      ExpectMatchesMapReference(keys, lsh.bands, [&](size_t i, size_t j) {
        return MinHasher::EstimateJaccard(signatures[i], signatures[j]) >=
               0.7;
      });
  size_t merged_copies = 0;
  for (size_t i = 150; i < 250; ++i) merged_copies += expected[i] < 150;
  EXPECT_GT(merged_copies, 50u);
  for (size_t i = 250; i < 300; ++i) EXPECT_EQ(expected[i], 250u);
}

TEST(ClusterBucketsTest, BucketOfIdenticalRowsCostsOneCheckPerRow) {
  constexpr size_t kRows = 500;
  std::vector<uint64_t> keys(kRows, 0x5eed);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<size_t> checks{0};
    UnionFind uf = ClusterBuckets(keys, 1, p, [&](size_t, size_t) {
      checks.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
    EXPECT_EQ(checks.load(), kRows - 1);
    for (size_t i = 1; i < kRows; ++i) EXPECT_EQ(uf.Find(i), uf.Find(0));
  }
}

TEST(ClusterBucketsTest, RowWithCollidingKeysIsNotItsOwnCandidate) {
  // Both rows carry the same key twice: one bucket of two rows, one check.
  std::vector<std::pair<size_t, size_t>> checked;
  UnionFind uf = ClusterBuckets({7, 7, 7, 7}, 2, nullptr,
                                [&](size_t i, size_t j) {
                                  checked.emplace_back(i, j);
                                  return true;
                                });
  ASSERT_EQ(checked.size(), 1u);
  EXPECT_EQ(checked[0], std::make_pair(size_t{0}, size_t{1}));
  EXPECT_EQ(uf.Find(0), uf.Find(1));
}

// ------------------------------------------------------ word hashes ----

TEST(WordHashesTest, MatchFnvOfTokenizedWords) {
  const std::vector<std::string> inputs = {
      "",
      "Hello World, it's FINE... 42 times!",
      "Ça fait DÉJÀ vu: Ærø Œuvre naïve ÀÉÎ",
      "Привет, МИР! Ёлка и Ξένος",
      "中文字符 mixed 日本語テキスト 한국어 ok",
      "don't 'quoted' O'Neil's ''",
      "abc\xff\xfe DEF \xc3 x\xe2\x82 end\xf0\x9f\x98",
      " \t\n;;; ---",
  };
  for (const std::string& in : inputs) {
    for (bool lowercase : {false, true}) {
      std::vector<uint64_t> expected;
      for (const std::string& w : lowercase ? text::TokenizeWordsLower(in)
                                            : text::TokenizeWords(in)) {
        expected.push_back(Fnv1a64(w));
      }
      EXPECT_EQ(text::WordHashes(in, lowercase), expected)
          << "input: " << in << " lowercase: " << lowercase;
    }
  }
}

// ------------------------------------------------------ exact dedup ----

TEST(DocumentExactDedupTest, KeepsFirstOccurrence) {
  DocumentExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"alpha", "beta", "alpha", "gamma", "beta"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 3u);
  EXPECT_EQ(result.value().GetTextAt(0), "alpha");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
}

TEST(DocumentExactDedupTest, NormalizationOptions) {
  DocumentExactDeduplicator loose(Config());
  auto r1 = loose.Deduplicate(Texts({"Hello World", "hello   world"}),
                              nullptr, nullptr);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().NumRows(), 1u);

  DocumentExactDeduplicator strict(
      Config(R"({"lowercase": false, "ignore_whitespace": false})"));
  auto r2 = strict.Deduplicate(Texts({"Hello World", "hello   world"}),
                               nullptr, nullptr);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().NumRows(), 2u);
}

/// The normalized copy FingerprintOf used to build before hashing it.
std::string NormalizedCopy(std::string_view text, bool lowercase,
                           bool ignore_whitespace) {
  std::string norm;
  for (char c : text) {
    if (ignore_whitespace &&
        (c == ' ' || c == '\t' || c == '\n' || c == '\r')) {
      continue;
    }
    if (lowercase && c >= 'A' && c <= 'Z') c = static_cast<char>(c + 32);
    norm.push_back(c);
  }
  return norm;
}

TEST(DocumentExactDedupTest, FingerprintOfIsFingerprintOfTheNormalizedCopy) {
  const std::string_view kPieces[] = {
      "a", "z", "A", "Z", "M", "@", "[", "`", "{", "0", " ", "  ", "\t",
      "\n", "\r", "\r\n", "\v", "\f", std::string_view("\0", 1),
      "\xC3\x80", "\xC3\xA0", "\xE4\xB8\xAD", "\x80", "\xFF",
      "Word", "WORD  word"};
  std::mt19937_64 rng(0xF1);
  std::vector<std::string> texts(3000);
  for (std::string& text : texts) {
    const size_t pieces = rng() % 40;
    for (size_t k = 0; k < pieces; ++k) {
      text += kPieces[rng() % std::size(kPieces)];
    }
  }
  workload::CorpusOptions options;
  options.num_docs = 100;
  options.seed = 21;
  data::Dataset corpus = workload::CorpusGenerator(options).Generate();
  for (size_t i = 0; i < corpus.NumRows(); ++i) {
    texts.emplace_back(corpus.GetTextAt(i));
  }
  for (bool lowercase : {false, true}) {
    for (bool ignore_whitespace : {false, true}) {
      json::Object config;
      config.Set("lowercase", json::Value(lowercase));
      config.Set("ignore_whitespace", json::Value(ignore_whitespace));
      DocumentExactDeduplicator dedup{json::Value(config)};
      for (const std::string& text : texts) {
        ASSERT_EQ(dedup.FingerprintOf(text),
                  Fingerprint(
                      NormalizedCopy(text, lowercase, ignore_whitespace)))
            << "lowercase " << lowercase << " ignore_whitespace "
            << ignore_whitespace << ": " << text;
      }
    }
  }
}

TEST(DocumentExactDedupTest, WritesDocHashStat) {
  DocumentExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"sample"});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().GetTextAt(0, "stats.doc_hash").size(), 32u);
}

// ---------------------------------------------------- minhash dedup ----

TEST(DocumentMinHashDedupTest, CatchesNearDuplicates) {
  std::string base =
      "the committee published a detailed report describing the economic "
      "effects of the policy on rural communities over several years of "
      "careful observation and data analysis across many regions";
  DocumentMinHashDeduplicator dedup(Config(R"({"jaccard_threshold": 0.6})"));
  data::Dataset ds =
      Texts({base, base + " with one extra sentence appended here",
             "a completely different document about astronomy and the stars "
             "observed through telescopes on distant mountains at night"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 1u);
}

TEST(DocumentMinHashDedupTest, FewPermutationsStillFormOneBand) {
  // A threshold of 0.9 asks for 16 rows per band, more than the 8
  // permutations; the rows are clamped so identical documents still meet.
  DocumentMinHashDeduplicator dedup(
      Config(R"({"num_perm": 8, "jaccard_threshold": 0.9})"));
  std::string doc = "the same words in the same order in both documents";
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(Texts({doc, doc}), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 1u);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].kept_row, 0u);
  EXPECT_EQ(pairs[0].removed_row, 1u);
}

TEST(DocumentMinHashDedupTest, LeavesDistinctDocsAlone) {
  workload::CorpusOptions options;
  options.num_docs = 50;
  options.seed = 77;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  size_t before = ds.NumRows();
  DocumentMinHashDeduplicator dedup(Config(R"({"jaccard_threshold": 0.9})"));
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  // Template-generated docs may rarely collide; allow a tiny tolerance.
  EXPECT_GE(result.value().NumRows(), before - 2);
}

// ---------------------------------------------------- simhash dedup ----

TEST(DocumentSimHashDedupTest, CatchesNearDuplicates) {
  std::string base;
  for (int i = 0; i < 30; ++i) {
    base += "sentence number " + std::to_string(i) + " about the project. ";
  }
  DocumentSimHashDeduplicator dedup(Config(R"({"hamming_threshold": 8})"));
  data::Dataset ds = Texts({base, base + "tail difference.",
                            "entirely unrelated words about gardening and "
                            "flowers in the spring season bloom"});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
}

// ----------------------------------------------------- ngram overlap ----

TEST(NgramOverlapDedupTest, ExactCopiesRemoved) {
  NgramOverlapDeduplicator dedup(Config(R"({"jaccard_threshold": 0.8})"));
  std::string doc = "one two three four five six seven eight nine ten";
  auto result = dedup.Deduplicate(Texts({doc, doc, "other words entirely "
                                                   "different from before"}),
                                  nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 2u);
}

TEST(NgramOverlapDedupTest, ThresholdControlsAggressiveness) {
  std::string a = "shared prefix words here then unique ending alpha beta";
  std::string b = "shared prefix words here then unique ending gamma delta";
  auto run = [&](double threshold) {
    json::Object config;
    config.Set("jaccard_threshold", json::Value(threshold));
    NgramOverlapDeduplicator dedup{json::Value(config)};
    auto r = dedup.Deduplicate(Texts({a, b}), nullptr, nullptr);
    EXPECT_TRUE(r.ok());
    return r.value().NumRows();
  };
  EXPECT_EQ(run(0.95), 2u);  // strict: both survive
  EXPECT_EQ(run(0.3), 1u);   // loose: near-duplicates collapse
}

/// The candidate index ngram_overlap_deduplicator used before it bucketed
/// through ClusterBuckets: rows in order, each checked against the earlier
/// rows that share one of its 24 smallest shingles unless already
/// connected. Returns each row's component label.
std::vector<size_t> NgramIndexComponents(const data::Dataset& ds,
                                         size_t shingle_size,
                                         double threshold) {
  const size_t n = ds.NumRows();
  std::vector<std::vector<uint64_t>> shingles(n);
  for (size_t i = 0; i < n; ++i) {
    shingles[i] = text::HashedWordNgrams(
        text::WordHashes(ds.GetTextAt(i), /*lowercase=*/true), shingle_size);
    std::sort(shingles[i].begin(), shingles[i].end());
    shingles[i].erase(std::unique(shingles[i].begin(), shingles[i].end()),
                      shingles[i].end());
  }
  constexpr size_t kIndexPerDoc = 24;
  std::unordered_map<uint64_t, std::vector<size_t>> index;
  UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint64_t>& grams = shingles[i];
    const size_t take = std::min(grams.size(), kIndexPerDoc);
    std::vector<size_t> candidates;
    for (size_t g = 0; g < take; ++g) {
      auto it = index.find(grams[g]);
      if (it == index.end()) continue;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (size_t j : candidates) {
      if (uf.Find(i) == uf.Find(j)) continue;
      if (text::JaccardSimilarity(grams, shingles[j]) >= threshold) {
        uf.Union(i, j);
      }
    }
    for (size_t g = 0; g < take; ++g) index[grams[g]].push_back(i);
  }
  return ComponentLabels(&uf, n);
}

// Survivors and pairs equal the row-ordered index's, with no pool and with
// four workers, on near copies plus rows that have no shingle at all (no
// text, fewer words than a shingle, and two such rows that are equal).
TEST(NgramOverlapDedupTest, MatchesRowOrderedIndexReference) {
  workload::CorpusOptions options;
  options.num_docs = 120;
  options.mean_words = 40;
  options.exact_dup_rate = 0.1;
  options.near_dup_rate = 0.3;
  options.short_doc_rate = 0.1;
  options.seed = 11;
  data::Dataset corpus = workload::CorpusGenerator(options).Generate();
  corpus.AppendSample(data::Sample());
  for (const char* text : {"", "two words", "two words", "one"}) {
    data::Sample sample;
    sample.Set("text", json::Value(text));
    corpus.AppendSample(sample);
  }
  ThreadPool pool(4);
  for (double threshold : {0.8, 0.0}) {
    std::vector<size_t> labels = NgramIndexComponents(corpus, 3, threshold);
    std::vector<size_t> keep;
    std::vector<std::pair<size_t, size_t>> expected_pairs;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == i) {
        keep.push_back(i);
      } else {
        expected_pairs.emplace_back(labels[i], i);
      }
    }
    ASSERT_FALSE(expected_pairs.empty()) << threshold;
    const std::string expected = data::ToJsonl(corpus.Select(keep));
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      json::Object config;
      config.Set("jaccard_threshold", json::Value(threshold));
      NgramOverlapDeduplicator dedup{json::Value(config)};
      std::vector<DuplicatePair> pairs;
      auto result = dedup.Deduplicate(corpus, p, &pairs);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(data::ToJsonl(result.value()), expected) << threshold;
      std::vector<std::pair<size_t, size_t>> got;
      for (const DuplicatePair& pair : pairs) {
        got.emplace_back(pair.kept_row, pair.removed_row);
      }
      EXPECT_EQ(got, expected_pairs) << threshold;
    }
  }
}

// --------------------------------------------------- granular dedup ----

TEST(ParagraphExactDedupTest, RemovesBoilerplateAcrossDocs) {
  std::string boiler = workload::CorpusGenerator::BoilerplateParagraph();
  ParagraphExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({
      boiler + "\n\nUnique content of document one.",
      boiler + "\n\nDifferent content of document two.",
  });
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().NumRows(), 2u);
  // First doc keeps the boilerplate, second doc loses it.
  EXPECT_NE(result.value().GetTextAt(0).find("Home | About"),
            std::string_view::npos);
  EXPECT_EQ(result.value().GetTextAt(1).find("Home | About"),
            std::string_view::npos);
  EXPECT_NE(result.value().GetTextAt(1).find("document two"),
            std::string_view::npos);
}

TEST(ParagraphExactDedupTest, DropsFullyDuplicateSamples) {
  ParagraphExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({"only paragraph here", "only paragraph here"});
  std::vector<DuplicatePair> pairs;
  auto result = dedup.Deduplicate(std::move(ds), nullptr, &pairs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumRows(), 1u);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(SentenceExactDedupTest, RemovesRepeatedSentences) {
  SentenceExactDeduplicator dedup(Config());
  data::Dataset ds = Texts({
      "A shared opening sentence appears here. Unique tail one.",
      "A shared opening sentence appears here. Unique tail two.",
  });
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().GetTextAt(1), "Unique tail two.");
}

TEST(GranularDedupTest, ShortUnitsAreExempt) {
  // Units below min_unit_length are never treated as duplicates.
  SentenceExactDeduplicator dedup(Config(R"({"min_unit_length": 8})"));
  data::Dataset ds = Texts({"Yes. More words follow here.",
                            "Yes. Other words follow here."});
  auto result = dedup.Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.value().GetTextAt(1).find("Yes."), std::string_view::npos);
}

// Sweep: on a corpus with injected duplicates every document-level method
// removes at least the exact copies and never drops below the unique count.
class DedupMethodTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DedupMethodTest, RemovesInjectedDuplicates) {
  workload::CorpusOptions options;
  options.num_docs = 120;
  options.exact_dup_rate = 0.25;
  options.seed = 13;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  size_t total = ds.NumRows();

  auto op = OpRegistry::Global().Create(GetParam(), Config());
  ASSERT_TRUE(op.ok());
  auto* dedup = static_cast<Deduplicator*>(op.value().get());
  auto result = dedup->Deduplicate(std::move(ds), nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().NumRows(), total);
  EXPECT_GT(result.value().NumRows(), total / 3);
}

// The pool changes speed, never output: with no pool and with four
// workers, every dedup exports the same bytes and reports the same pairs,
// on a corpus with exact copies, near copies and repeated paragraphs.
TEST_P(DedupMethodTest, ParallelMatchesSequential) {
  workload::CorpusOptions options;
  options.num_docs = 160;
  options.exact_dup_rate = 0.2;
  options.near_dup_rate = 0.2;
  options.boilerplate_rate = 0.3;
  options.short_doc_rate = 0.05;
  options.seed = 5;
  data::Dataset corpus = workload::CorpusGenerator(options).Generate();
  corpus.AppendSample(data::Sample());  // a row with no text at all

  auto run = [&](ThreadPool* pool, std::vector<DuplicatePair>* pairs) {
    auto op = OpRegistry::Global().Create(GetParam(), Config());
    EXPECT_TRUE(op.ok());
    auto* dedup = static_cast<Deduplicator*>(op.value().get());
    auto result = dedup->Deduplicate(corpus, pool, pairs);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return data::ToJsonl(result.value());
  };
  std::vector<DuplicatePair> serial_pairs, parallel_pairs;
  ThreadPool pool(4);
  std::string serial = run(nullptr, &serial_pairs);
  std::string parallel = run(&pool, &parallel_pairs);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial_pairs.empty());
  ASSERT_EQ(serial_pairs.size(), parallel_pairs.size());
  for (size_t i = 0; i < serial_pairs.size(); ++i) {
    EXPECT_EQ(serial_pairs[i].kept_row, parallel_pairs[i].kept_row);
    EXPECT_EQ(serial_pairs[i].removed_row, parallel_pairs[i].removed_row);
    EXPECT_EQ(serial_pairs[i].similarity, parallel_pairs[i].similarity);
  }
}

// A Deduplicator keeps no run state: one const instance runs on two
// corpora of different sizes at once, from two threads sharing a 4-worker
// pool, then on each again in turn, and every run returns the rows and
// pairs of a fresh instance's serial run.
TEST_P(DedupMethodTest, ConstInstanceRunsConcurrently) {
  auto corpus = [](size_t num_docs, uint64_t seed) {
    workload::CorpusOptions options;
    options.num_docs = num_docs;
    options.exact_dup_rate = 0.2;
    options.near_dup_rate = 0.2;
    options.boilerplate_rate = 0.3;
    options.short_doc_rate = 0.05;
    options.seed = seed;
    return workload::CorpusGenerator(options).Generate();
  };
  const data::Dataset corpora[] = {corpus(100, 21), corpus(140, 22)};
  using Pairs = std::vector<std::tuple<size_t, size_t, double>>;
  auto run = [](const Deduplicator& dedup, const data::Dataset& ds,
                ThreadPool* pool) {
    std::vector<DuplicatePair> pairs;
    auto result = dedup.Deduplicate(ds, pool, &pairs);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Pairs got;
    for (const DuplicatePair& pair : pairs) {
      got.emplace_back(pair.kept_row, pair.removed_row, pair.similarity);
    }
    return std::make_pair(
        result.ok() ? data::ToJsonl(result.value()) : std::string(), got);
  };
  auto create = [] {
    auto op = OpRegistry::Global().Create(GetParam(), Config());
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    return std::move(op).value();
  };
  std::pair<std::string, Pairs> expected[2];
  for (size_t c = 0; c < 2; ++c) {
    std::unique_ptr<Op> fresh = create();
    expected[c] = run(static_cast<const Deduplicator&>(*fresh), corpora[c],
                      nullptr);
    EXPECT_FALSE(expected[c].second.empty()) << c;
  }

  const std::unique_ptr<Op> op = create();
  const Deduplicator& shared = static_cast<const Deduplicator&>(*op);
  ThreadPool pool(4);
  std::pair<std::string, Pairs> got[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      got[c] = run(shared, corpora[c], &pool);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(got[c].first, expected[c].first) << "concurrent run " << c;
    EXPECT_EQ(got[c].second, expected[c].second) << "concurrent run " << c;
  }
  for (size_t c : {size_t{1}, size_t{0}}) {
    std::pair<std::string, Pairs> again = run(shared, corpora[c], nullptr);
    EXPECT_EQ(again.first, expected[c].first) << "rerun " << c;
    EXPECT_EQ(again.second, expected[c].second) << "rerun " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, DedupMethodTest,
                         ::testing::Values("document_exact_deduplicator",
                                           "document_minhash_deduplicator",
                                           "document_simhash_deduplicator",
                                           "ngram_overlap_deduplicator",
                                           "paragraph_exact_deduplicator",
                                           "sentence_exact_deduplicator"));

}  // namespace
}  // namespace dj::ops
