// Differential tests for the SWAR/SIMD data-plane kernels: every
// accelerated kernel must be byte-identical to its scalar twin on the same
// input, across word/page boundaries, escape densities, and truncated
// tails. The suite also runs the full data-plane paths (JSONL parse, djlz
// frame, minhash signatures) at the scalar level and at the compiled level
// and asserts identical results — the dispatch level may only change speed.

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/swar.h"
#include "compress/djlz.h"
#include "data/dataset.h"
#include "data/io.h"
#include "ops/dedup/minhash.h"
#include "workload/generator.h"

namespace dj {
namespace {

// Deterministic corpus of adversarial buffers: empty, sub-word, word- and
// page-aligned sizes and their off-by-one neighbors, at several densities
// of structural bytes ('\n', '"', '\\', control bytes).
std::vector<std::string> TestBuffers() {
  std::vector<std::string> buffers;
  std::mt19937_64 rng(0x5EED);
  const size_t sizes[] = {0,  1,  7,    8,    9,    15,   16,  17,
                          63, 64, 65,   255,  256,  257,  1023,
                          4095, 4096, 4097, 8192, 100000};
  const double densities[] = {0.0, 0.02, 0.25, 0.9};
  const char specials[] = {'\n', '"', '\\', '\t', '\x01', '\x1f'};
  for (size_t size : sizes) {
    for (double density : densities) {
      std::string buf(size, '\0');
      for (size_t i = 0; i < size; ++i) {
        if (std::uniform_real_distribution<>(0, 1)(rng) < density) {
          buf[i] = specials[rng() % sizeof(specials)];
        } else {
          buf[i] = static_cast<char>('a' + rng() % 26);
        }
      }
      buffers.push_back(std::move(buf));
    }
  }
  // A buffer that is nothing but structural bytes, and one ending mid-word.
  buffers.push_back(std::string(1000, '"'));
  buffers.push_back(std::string(1000, '\n'));
  buffers.push_back("tail-not-word-aligned-\\\"x");
  return buffers;
}

TEST(SwarKernelTest, FindByteMatchesScalar) {
  for (const std::string& buf : TestBuffers()) {
    for (char b : {'\n', '"', 'a', '\x00'}) {
      ASSERT_EQ(swar::FindByte(buf.data(), buf.size(), b),
                swar::scalar::FindByte(buf.data(), buf.size(), b));
    }
  }
}

TEST(SwarKernelTest, MatchLengthMatchesScalar) {
  std::mt19937_64 rng(0xBEEF);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{63}, size_t{64}, size_t{1000}}) {
    std::string a(len + 8, 'x');
    std::string b = a;
    // Diverge at every position in turn, including never.
    for (size_t diverge = 0; diverge <= len; ++diverge) {
      std::string c = b;
      if (diverge < len) c[diverge] = 'y';
      const auto* pa = reinterpret_cast<const uint8_t*>(a.data());
      const auto* pc = reinterpret_cast<const uint8_t*>(c.data());
      ASSERT_EQ(swar::MatchLength(pa, pc, len),
                swar::scalar::MatchLength(pa, pc, len))
          << "len=" << len << " diverge=" << diverge;
    }
    (void)rng;
  }
}

TEST(SwarKernelTest, JsonCleanSpanMatchesScalar) {
  for (const std::string& buf : TestBuffers()) {
    ASSERT_EQ(swar::JsonCleanSpan(buf.data(), buf.size()),
              swar::scalar::JsonCleanSpan(buf.data(), buf.size()))
        << "size=" << buf.size();
  }
}

// Buffers for the text span kernels: text bytes mixed, at several
// densities, with whitespace, newline runs, controls, DEL, the lead bytes of
// the multi-byte whitespace and other non-ASCII bytes, and words of 1-40
// bytes.
std::vector<std::string> TextSpanBuffers() {
  std::vector<std::string> buffers;
  std::mt19937_64 rng(0x7E47);
  const char specials[] = {' ',    ' ',    '\n',   '\n',   '\t',   '\v',
                           '\f',   '\r',   '\x01', '\x1f', '\x7f', '\x20',
                           '\xC2', '\xE2', '\xE3', '\xA0', '\x80', '\xC3',
                           '\xE1', '\xFF', '\x21', '\x08', '\x0e', '\x7e'};
  const size_t sizes[] = {0,  1,  2,  7,  8,   9,   15,  16,   17,   31,
                          32, 33, 63, 64, 65, 255, 256, 1023, 4096, 4097};
  const double densities[] = {0.0, 0.05, 0.2, 0.5, 0.95};
  for (size_t size : sizes) {
    for (double density : densities) {
      for (int rep = 0; rep < 4; ++rep) {
        std::string buf(size, 'a');
        for (size_t i = 0; i < size; ++i) {
          if (std::uniform_real_distribution<>(0, 1)(rng) < density) {
            buf[i] = specials[rng() % sizeof(specials)];
          } else if (rng() % 16 == 0) {
            // A word boundary every few bytes, as in prose.
            buf[i] = ' ';
          } else {
            buf[i] = static_cast<char>('a' + rng() % 26);
          }
        }
        buffers.push_back(std::move(buf));
      }
    }
  }
  buffers.push_back(std::string(300, ' '));
  buffers.push_back(std::string(300, '\n'));
  buffers.push_back(std::string(300, 'w'));
  return buffers;
}

TEST(SwarKernelTest, TextSpanKernelsMatchScalarAtEveryLevel) {
  const std::vector<std::string> buffers = TextSpanBuffers();
  for (swar::Level level : {swar::Level::kSwar, swar::CompiledLevel()}) {
    swar::ScopedLevel pin(level);
    for (const std::string& buf : buffers) {
      // Every suffix start within the first 17 bytes, so each body meets
      // its kernel's state at every offset of a word or vector.
      for (size_t from = 0; from <= std::min<size_t>(buf.size(), 17); ++from) {
        const char* d = buf.data() + from;
        const size_t n = buf.size() - from;
        ASSERT_EQ(swar::AsciiSpan(d, n), swar::scalar::AsciiSpan(d, n))
            << swar::LevelName(level) << " size=" << n;
        ASSERT_EQ(swar::AsciiTextSpan(d, n), swar::scalar::AsciiTextSpan(d, n))
            << swar::LevelName(level) << " size=" << n;
        ASSERT_EQ(swar::WhitespaceCleanSpan(d, n),
                  swar::scalar::WhitespaceCleanSpan(d, n))
            << swar::LevelName(level) << " size=" << n;
        for (size_t max_len : {0, 1, 2, 5, 6, 7, 13, 14, 15, 16, 40}) {
          ASSERT_EQ(swar::FindWordLongerThan(d, n, max_len),
                    swar::scalar::FindWordLongerThan(d, n, max_len))
              << swar::LevelName(level) << " size=" << n
              << " max_len=" << max_len;
        }
      }
    }
  }
}

TEST(SwarKernelTest, TextSpanKernelExamples) {
  EXPECT_EQ(swar::scalar::AsciiSpan("a\x01\x7f\x80", 4), 3u);
  EXPECT_EQ(swar::scalar::AsciiTextSpan("a\tb\n~\x7f", 6), 5u);
  EXPECT_EQ(swar::scalar::AsciiTextSpan("ab\rcd", 5), 2u);
  // A lone ' ', '\n' or "\n\n" between kept bytes is in the span; a
  // double space, "\n\n\n", a trailing gap or a multi-byte lead is not.
  EXPECT_EQ(swar::scalar::WhitespaceCleanSpan("a b\nc\n\nd", 8), 8u);
  EXPECT_EQ(swar::scalar::WhitespaceCleanSpan("ab  c", 5), 2u);
  EXPECT_EQ(swar::scalar::WhitespaceCleanSpan("a\n\n\nb", 5), 1u);
  EXPECT_EQ(swar::scalar::WhitespaceCleanSpan("ab ", 3), 2u);
  EXPECT_EQ(swar::scalar::WhitespaceCleanSpan("a \xC2\xA0", 4), 1u);
  EXPECT_EQ(swar::scalar::FindWordLongerThan("ab abcd a", 9, 3), 3u);
  EXPECT_EQ(swar::scalar::FindWordLongerThan("ab abc a", 8, 3), 8u);
  EXPECT_EQ(swar::scalar::FindWordLongerThan("abcd", 4, 3), 0u);
}

TEST(SwarKernelTest, AppendMatchMatchesScalar) {
  // Overlap-heavy cases: offset < len replicates runs.
  const struct {
    size_t offset;
    size_t len;
  } cases[] = {{1, 1},  {1, 100}, {2, 37}, {3, 8},   {7, 21},
               {8, 64}, {9, 9},   {16, 5}, {40, 80}, {64, 1000}};
  for (const auto& c : cases) {
    std::string seed = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLM"
                       "NOPQRSTUVWXYZ-_.!?";
    std::string fast = seed, ref = seed;
    swar::AppendMatch(&fast, c.offset, c.len);
    swar::scalar::AppendMatch(&ref, c.offset, c.len);
    ASSERT_EQ(fast, ref) << "offset=" << c.offset << " len=" << c.len;
  }
}

TEST(SwarKernelTest, Hash64MatchesScalarAndIsLevelInvariant) {
  for (const std::string& buf : TestBuffers()) {
    const uint64_t ref = swar::scalar::Hash64(buf.data(), buf.size());
    ASSERT_EQ(swar::Hash64(buf.data(), buf.size()), ref)
        << "size=" << buf.size();
    // File checksums must not depend on the dispatch level: a blob written
    // by a scalar-pinned build has to verify under the compiled level.
    for (swar::Level level :
         {swar::Level::kScalar, swar::Level::kSwar, swar::CompiledLevel()}) {
      swar::ScopedLevel pin(level);
      ASSERT_EQ(swar::Hash64(buf.data(), buf.size()), ref)
          << "size=" << buf.size() << " level=" << swar::LevelName(level);
    }
  }
}

TEST(SwarKernelTest, ScopedLevelPinsAndRestores) {
  const swar::Level before = swar::ActiveLevel();
  {
    swar::ScopedLevel pin(swar::Level::kScalar);
    EXPECT_EQ(swar::ActiveLevel(), swar::Level::kScalar);
  }
  EXPECT_EQ(swar::ActiveLevel(), before);
}

// ------------------------------------------------ full-path differentials --

data::Dataset BenchLikeCorpus() {
  workload::CorpusOptions options;
  options.style = workload::Style::kWeb;
  options.num_docs = 300;
  options.mean_words = 60;
  options.seed = 1234;
  return workload::CorpusGenerator(options).Generate();
}

TEST(SwarDifferentialTest, ParseJsonlIdenticalAcrossLevels) {
  const std::string jsonl = [] {
    swar::ScopedLevel pin(swar::Level::kScalar);
    return data::ToJsonl(BenchLikeCorpus());
  }();
  std::string fast_jsonl;
  {
    auto parsed = data::ParseJsonl(jsonl);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    fast_jsonl = data::ToJsonl(parsed.value());
  }
  std::string ref_jsonl;
  {
    swar::ScopedLevel pin(swar::Level::kScalar);
    auto parsed = data::ParseJsonl(jsonl);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ref_jsonl = data::ToJsonl(parsed.value());
  }
  EXPECT_EQ(fast_jsonl, ref_jsonl);
  EXPECT_EQ(fast_jsonl, jsonl);
}

TEST(SwarDifferentialTest, ParseErrorsIdenticalAcrossLevels) {
  // The parser copies string runs with a dispatched kernel; the level must
  // not change error text or line numbers either.
  const std::string bad_inputs[] = {
      "{\"a\":1}\n{\"b\":oops}\n",
      "{\"a\":1}\n[1,2,3]\n",
      "{\"s\":\"unterminated\n{\"a\":2}\n",
      "{\"a\":1}\n{\"b\":2}\n{\"c\":\n",
      "{\"u\":\"\\uZZZZ\"}\n",
  };
  for (const std::string& bad : bad_inputs) {
    auto fast = data::ParseJsonl(bad);
    swar::ScopedLevel pin(swar::Level::kScalar);
    auto ref = data::ParseJsonl(bad);
    ASSERT_EQ(fast.ok(), ref.ok()) << bad;
    if (!fast.ok()) {
      EXPECT_EQ(fast.status().ToString(), ref.status().ToString()) << bad;
    }
  }
}

TEST(SwarDifferentialTest, CompressFrameIdenticalAcrossLevels) {
  const std::string blob = [] {
    swar::ScopedLevel pin(swar::Level::kScalar);
    return data::SerializeDataset(BenchLikeCorpus());
  }();
  const std::string fast_frame = compress::CompressFrame(blob);
  std::string ref_frame;
  {
    swar::ScopedLevel pin(swar::Level::kScalar);
    ref_frame = compress::CompressFrame(blob);
  }
  ASSERT_EQ(fast_frame, ref_frame);
  // And the scalar decompressor accepts the fast frame byte-for-byte.
  swar::ScopedLevel pin(swar::Level::kScalar);
  auto raw = compress::DecompressFrame(fast_frame);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw.value(), blob);
}

TEST(SwarDifferentialTest, SerializeDatasetIdenticalAcrossLevels) {
  data::Dataset dataset = BenchLikeCorpus();
  const std::string fast_blob = data::SerializeDataset(dataset);
  std::string ref_blob;
  {
    swar::ScopedLevel pin(swar::Level::kScalar);
    ref_blob = data::SerializeDataset(dataset);
  }
  ASSERT_EQ(fast_blob, ref_blob);
  // Cross-level read-back: scalar reader on fast writer output.
  swar::ScopedLevel pin(swar::Level::kScalar);
  auto round = data::DeserializeDataset(fast_blob);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(data::SerializeDataset(round.value()), ref_blob);
}

TEST(SwarDifferentialTest, MinHashSignaturesIdenticalAcrossLevels) {
  ops::MinHasher hasher(64, 0xC0FFEE);
  std::mt19937_64 rng(42);
  for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                       size_t{7}, size_t{8}, size_t{100}, size_t{257}}) {
    std::vector<uint64_t> shingles(count);
    for (auto& s : shingles) s = rng();
    const std::vector<uint64_t> fast = hasher.Signature(shingles);
    swar::ScopedLevel pin(swar::Level::kScalar);
    EXPECT_EQ(fast, hasher.Signature(shingles)) << "count=" << count;
  }
}

}  // namespace
}  // namespace dj
