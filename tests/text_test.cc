#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "text/lang_id.h"
#include "text/lexicons.h"
#include "text/ngram.h"
#include "text/ngram_lm.h"
#include "text/normalize.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "text/utf8.h"
#include "text_kernel_reference.h"

namespace dj::text {
namespace {

// --------------------------------------------------------------- utf8 ----

TEST(Utf8Test, DecodeAscii) {
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8("A", &pos, &cp));
  EXPECT_EQ(cp, 'A');
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, DecodeMultibyte) {
  std::string s = "\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80";  // é 中 😀
  size_t pos = 0;
  uint32_t cp;
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0xE9u);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x4E2Du);
  EXPECT_TRUE(DecodeUtf8(s, &pos, &cp));
  EXPECT_EQ(cp, 0x1F600u);
  EXPECT_EQ(pos, s.size());
}

TEST(Utf8Test, RejectsOverlongAndSurrogates) {
  // Overlong 2-byte encoding of '/'.
  std::string overlong = "\xC0\xAF";
  EXPECT_FALSE(IsValidUtf8(overlong));
  // CESU-8 surrogate.
  std::string surrogate = "\xED\xA0\x80";
  EXPECT_FALSE(IsValidUtf8(surrogate));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("\xE4\xB8\xAD"));
}

TEST(Utf8Test, MalformedAdvancesOneByte) {
  std::string bad = "\xFFok";
  size_t pos = 0;
  uint32_t cp;
  EXPECT_FALSE(DecodeUtf8(bad, &pos, &cp));
  EXPECT_EQ(cp, 0xFFFDu);
  EXPECT_EQ(pos, 1u);
}

TEST(Utf8Test, EncodeDecodeRoundTrip) {
  for (uint32_t cp : {0x41u, 0xE9u, 0x4E2Du, 0x1F600u}) {
    std::string s;
    EncodeUtf8(cp, &s);
    size_t pos = 0;
    uint32_t back;
    EXPECT_TRUE(DecodeUtf8(s, &pos, &back));
    EXPECT_EQ(back, cp);
    EXPECT_EQ(pos, s.size());
  }
}

TEST(Utf8Test, CodepointCount) {
  EXPECT_EQ(CodepointCount("abc"), 3u);
  EXPECT_EQ(CodepointCount("\xE4\xB8\xAD\xE6\x96\x87"), 2u);
  EXPECT_EQ(CodepointCount(""), 0u);
}

TEST(Utf8Test, ClassPredicates) {
  EXPECT_TRUE(IsCjk(0x4E2D));
  EXPECT_FALSE(IsCjk('a'));
  EXPECT_TRUE(IsAsciiAlnum('z'));
  EXPECT_TRUE(IsAsciiDigit('7'));
  EXPECT_TRUE(IsWhitespaceCp(0x00A0));
  EXPECT_TRUE(IsPunctuationCp('!'));
  EXPECT_TRUE(IsPunctuationCp(0x3002));  // 。
  EXPECT_TRUE(IsEmojiLike(0x1F600));
}

// ---------------------------------------------------------- tokenizer ----

TEST(TokenizerTest, BasicWords) {
  EXPECT_EQ(TokenizeWords("Hello, world!"),
            (std::vector<std::string>{"Hello", "world"}));
}

TEST(TokenizerTest, ApostrophesStayInWords) {
  EXPECT_EQ(TokenizeWords("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
}

TEST(TokenizerTest, CjkCharactersAreSingleTokens) {
  std::vector<std::string> tokens =
      TokenizeWords("ab\xE4\xB8\xAD\xE6\x96\x87" "cd");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "ab");
  EXPECT_EQ(tokens[1], "\xE4\xB8\xAD");
  EXPECT_EQ(tokens[3], "cd");
}

TEST(TokenizerTest, LowercaseVariant) {
  EXPECT_EQ(TokenizeWordsLower("MiXeD Case"),
            (std::vector<std::string>{"mixed", "case"}));
}

TEST(TokenizerTest, WhitespaceTokenizerKeepsPunctuation) {
  EXPECT_EQ(TokenizeWhitespace("a, b.  c"),
            (std::vector<std::string>{"a,", "b.", "c"}));
}

TEST(TokenizerTest, CountWordsMatchesTokenize) {
  std::string s = "one two, three. four";
  EXPECT_EQ(CountWords(s), TokenizeWords(s).size());
}

TEST(TokenizerTest, ApproxLlmTokenCountGrowsWithLongWords) {
  size_t short_words = ApproxLlmTokenCount("cat dog bird");
  size_t long_word = ApproxLlmTokenCount("antidisestablishmentarianism");
  EXPECT_EQ(short_words, 3u);
  EXPECT_GT(long_word, 1u);  // split into subword pieces
}

// -------------------------------------------------------------- ngram ----

TEST(NgramTest, HashedNgramsConsistentWithStrings) {
  std::vector<std::string> a{"x", "y", "z", "x", "y"};
  EXPECT_EQ(HashedWordNgrams(a, 2).size(), 4u);
  // Same bigram "x y" appears twice -> equal hashes at 0 and 3.
  auto hashes = HashedWordNgrams(a, 2);
  EXPECT_EQ(hashes[0], hashes[3]);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(NgramTest, DuplicateRatio) {
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(DuplicateNgramRatio({1, 1, 1, 1}), 0.75);
}

TEST(NgramTest, JaccardSimilarity) {
  using Set = std::vector<uint64_t>;
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Set{1, 2, 3}, Set{1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Set{1, 2}, Set{3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Set{1, 2, 3, 3}, Set{2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Set{}, Set{}), 1.0);
}

// Sorted sets are read in place and anything else is sorted in a copy;
// either way the value is that of sorting and deduplicating both copies.
TEST(NgramTest, JaccardSimilarityMatchesSortedCopies) {
  auto reference = [](std::vector<uint64_t> a, std::vector<uint64_t> b) {
    if (a.empty() && b.empty()) return 1.0;
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    std::vector<uint64_t> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    const size_t uni = a.size() + b.size() - inter.size();
    return static_cast<double>(inter.size()) / static_cast<double>(uni);
  };
  std::mt19937_64 rng(0x7ACC);
  auto random_set = [&] {
    std::vector<uint64_t> v(rng() % 40);
    const uint64_t range = 1 + rng() % 60;
    for (uint64_t& x : v) x = rng() % 4 == 0 ? ~0ULL - rng() % 3 : rng() % range;
    switch (rng() % 3) {
      case 0:  // a sorted set, as the n-gram overlap dedup passes
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        break;
      case 1:  // sorted with repeats
        std::sort(v.begin(), v.end());
        break;
      default:  // unsorted
        break;
    }
    return v;
  };
  for (int c = 0; c < 20000; ++c) {
    const std::vector<uint64_t> a = random_set(), b = random_set();
    ASSERT_EQ(JaccardSimilarity(a, b), reference(a, b));
    ASSERT_EQ(JaccardSimilarity(b, a), reference(a, b));
  }
}

// Mixing each word once gives the per-window HashCombine chain.
TEST(NgramTest, HashedWordNgramsAreTheHashCombineChain) {
  std::mt19937_64 rng(0x6E67);
  for (size_t words = 0; words <= 40; ++words) {
    std::vector<uint64_t> hashes(words);
    for (uint64_t& h : hashes) {
      const uint64_t pick = rng() % 8;
      h = pick == 0 ? 0 : pick == 1 ? ~0ULL : rng();
    }
    EXPECT_TRUE(HashedWordNgrams(hashes, 0).empty());
    for (size_t n = 1; n <= 8; ++n) {
      std::vector<uint64_t> expected;
      for (size_t i = 0; i + n <= words; ++i) {
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (size_t j = 0; j < n; ++j) h = HashCombine(h, hashes[i + j]);
        expected.push_back(h);
      }
      ASSERT_EQ(HashedWordNgrams(hashes, n), expected) << words << " " << n;
    }
  }
}

// ----------------------------------------------------------- sentence ----

TEST(SentenceTest, BasicSplit) {
  auto s = SplitSentences("First one. Second one! Third one?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one.");
  EXPECT_EQ(s[2], "Third one?");
}

TEST(SentenceTest, AbbreviationsDoNotSplit) {
  auto s = SplitSentences("Dr. Smith met Prof. Jones. They talked.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "Dr. Smith met Prof. Jones.");
}

TEST(SentenceTest, DecimalsDoNotSplit) {
  auto s = SplitSentences("Pi is 3.14 roughly. Euler is 2.72.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceTest, CjkPunctuationSplits) {
  auto s = SplitSentences(
      "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa5\xbd\xe3\x80\x82"
      "\xe6\x98\x8e\xe5\xa4\xa9\xe8\xa7\x81\xe3\x80\x82");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, ParagraphBreakSplits) {
  auto s = SplitSentences("no punctuation here\n\nnext paragraph");
  EXPECT_EQ(s.size(), 2u);
}

TEST(SentenceTest, SplitParagraphs) {
  auto p = SplitParagraphs("one\ntwo\n\nthree\n\n\nfour");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], "one\ntwo");
  EXPECT_EQ(p[2], "four");
}

// ---------------------------------------------------------- normalize ----

TEST(NormalizeTest, WhitespaceCollapse) {
  EXPECT_EQ(NormalizeWhitespace("a   b\t c"), "a b c");
  EXPECT_EQ(NormalizeWhitespace("  lead trail  "), "lead trail");
  EXPECT_EQ(NormalizeWhitespace("a\n\n\n\nb"), "a\n\nb");
  EXPECT_EQ(NormalizeWhitespace("a \nb"), "a\nb");
}

TEST(NormalizeTest, PunctuationMapping) {
  // Curly quotes, em dash, ellipsis, fullwidth A.
  std::string input =
      "\xE2\x80\x9Cq\xE2\x80\x9D \xE2\x80\x94 \xE2\x80\xA6 \xEF\xBC\xA1";
  EXPECT_EQ(NormalizePunctuation(input), "\"q\" - ... A");
}

TEST(NormalizeTest, FixUnicodeRemovesControlAndMojibake) {
  std::string input = "it\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2s \x01 fine\xEF\xBB\xBF";
  std::string out = FixUnicode(input);
  EXPECT_EQ(out, "it's  fine");
}

TEST(NormalizeTest, FixUnicodeKeepsValidMultibyte) {
  std::string input = "caf\xC3\xA9 \xE4\xB8\xAD";
  EXPECT_EQ(FixUnicode(input), input);
}

// The run-copying kernels must give what the codepoint-at-a-time bodies in
// text_kernel_reference.h give, at every dispatch level of the span kernels
// they call.

std::string Escaped(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return out;
}

TEST(TextKernelReferenceTest, FuzzedStringsMatchTheReference) {
  // 10^5 strings at the level the build dispatches to, and a share of them
  // at the scalar and SWAR levels, whose span kernels differ.
  const std::pair<swar::Level, size_t> runs[] = {
      {swar::CompiledLevel(), 100000},
      {swar::Level::kScalar, 20000},
      {swar::Level::kSwar, 20000}};
  for (const auto& [level, cases] : runs) {
    swar::ScopedLevel pin(level);
    std::mt19937_64 rng(0x7E47);
    for (size_t c = 0; c < cases; ++c) {
      std::string s = reference::KernelFuzzText(rng, 1 + rng() % 40);
      if (c % 64 == 0) {
        for (int k = 0; k < 16; ++k) s += reference::KernelFuzzText(rng, 8);
      }
      ASSERT_EQ(NormalizeWhitespace(s), reference::NormalizeWhitespace(s))
          << swar::LevelName(level) << " " << Escaped(s);
      ASSERT_EQ(FixUnicode(s), reference::FixUnicode(s))
          << swar::LevelName(level) << " " << Escaped(s);
      ASSERT_EQ(CodepointCount(s), reference::CodepointCount(s))
          << swar::LevelName(level) << " " << Escaped(s);
    }
  }
}

TEST(TextKernelReferenceTest, BenchStyleDocumentsMatchTheReference) {
  for (const std::string& doc : reference::BenchStyleDocuments(300)) {
    const std::string fixed = reference::FixUnicode(doc);
    ASSERT_EQ(FixUnicode(doc), fixed) << Escaped(doc);
    ASSERT_EQ(NormalizeWhitespace(doc), reference::NormalizeWhitespace(doc))
        << Escaped(doc);
    ASSERT_EQ(NormalizeWhitespace(fixed),
              reference::NormalizeWhitespace(fixed))
        << Escaped(fixed);
    ASSERT_EQ(CodepointCount(doc), reference::CodepointCount(doc))
        << Escaped(doc);
  }
}

// The word scanner classifies ASCII bytes by table and decodes only bytes
// of 0x80 or more; every word function must give what the reference's
// codepoint-at-a-time scanner gives.
void ExpectWordsMatchTheReference(const std::string& s) {
  ASSERT_EQ(TokenizeWords(s), reference::TokenizeWords(s)) << Escaped(s);
  ASSERT_EQ(TokenizeWordsLower(s), reference::TokenizeWordsLower(s))
      << Escaped(s);
  ASSERT_EQ(WordHashes(s, false), reference::WordHashes(s, false))
      << Escaped(s);
  ASSERT_EQ(WordHashes(s, true), reference::WordHashes(s, true))
      << Escaped(s);
  ASSERT_EQ(CountWords(s), reference::TokenizeWords(s).size()) << Escaped(s);
}

TEST(WordScannerReferenceTest, FuzzedStringsMatchTheReference) {
  std::mt19937_64 rng(0x3057);
  for (size_t c = 0; c < 100000; ++c) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectWordsMatchTheReference(reference::WordFuzzText(rng)));
  }
}

TEST(WordScannerReferenceTest, BenchStyleDocumentsMatchTheReference) {
  for (const std::string& doc : reference::BenchStyleDocuments(300)) {
    ASSERT_NO_FATAL_FAILURE(ExpectWordsMatchTheReference(doc));
  }
}

TEST(NormalizeTest, RemoveCharsUtf8Set) {
  EXPECT_EQ(RemoveChars("a\xE2\x97\x86"
                        "b\xE2\x97\x8F"
                        "c",
                        "\xE2\x97\x86\xE2\x97\x8F"),
            "abc");
}

// ------------------------------------------------------------ lexicon ----

TEST(LexiconTest, BuiltinsNonEmptyAndQueryable) {
  EXPECT_GT(Lexicon::EnglishStopwords().size(), 100u);
  EXPECT_TRUE(Lexicon::EnglishStopwords().Contains("the"));
  EXPECT_FALSE(Lexicon::EnglishStopwords().Contains("photosynthesis"));
  EXPECT_TRUE(Lexicon::FlaggedWords().Contains("casino"));
  EXPECT_TRUE(Lexicon::CommonVerbs().Contains("describe"));
}

TEST(LexiconTest, AddExtends) {
  Lexicon lex{"a"};
  EXPECT_FALSE(lex.Contains("b"));
  lex.Add("b");
  EXPECT_TRUE(lex.Contains("b"));
}

// ------------------------------------------------------- golden stats ----

// Exact values of every statistic the language-ID and repetition filters
// threshold, captured from the original unordered_set / per-profile-map
// kernels. Hex-float literals so each pin is one exact double: a faster
// kernel must reproduce these bits, not just come close.
struct GoldenText {
  const char* name;
  const char* text;
};

constexpr GoldenText kGoldenTexts[] = {
    {"en",
     "The committee published a detailed report about the economy and the "
     "people who live in the region."},
    {"de",
     "Die Forscher beschreiben das Verfahren und die Ergebnisse des "
     "Experiments mit grosser Sorgfalt und vielen Worten."},
    {"fr",
     "Les chercheurs decrivent la methode et les resultats de l'experience "
     "avec beaucoup de soin."},
    {"es",
     "Los investigadores describen el metodo y los resultados del "
     "experimento con mucho cuidado."},
    {"zh",
     "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe5\x88\x86\xe6\x9e\x90"
     "\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93\xe6\x9e\x9c\xe3\x80\x82"
     "\xe4\xbb\x8a\xe5\xa4\xa9\xe5\xa4\xa9\xe6\xb0\x94\xe5\xbe\x88\xe5\xa5\xbd"
     "\xe3\x80\x82"},
    {"mixed",
     "The model \xe6\xa8\xa1\xe5\x9e\x8b is trained on \xe5\xa4\xa7\xe9\x87\x8f"
     " text data from the web, der Hund und le chien."},
    {"empty", ""},
    {"short", "hi"},
    {"rep_chars",
     "abcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabc"},
    {"rep_words",
     "the cat sat on the mat the cat sat on the mat the cat sat on the mat "
     "the cat sat on the mat the cat sat on the mat the cat sat on the mat"},
    {"accents",
     "Caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 d\xc3\xa9j\xc3\xa0 vu, "
     "\xc3\x9c" "BER \xc3\x85\xc3\x84\xc3\x96 STRASSE"},
    {"noise",
     "Click HERE!!! Buy now $$$ 50% OFF >>> http://spam.example/?id=123 <<< "
     "CLICK here!!! BUY NOW $$$ Click HERE!!! Buy now $$$ 50% OFF"},
    {"boilerplate",
     "Subscribe to our newsletter for updates. The river rose overnight and "
     "the town council met at dawn. Subscribe to our newsletter for updates. "
     "Volunteers stacked sandbags along the bank. Subscribe to our newsletter "
     "for updates."},
    {"binary", "\x01\x02\xff\xfe\x80 \t\n\r ABC abc \xf0\x9f\x98\x80"},
};

struct GoldenStats {
  const char* name;
  const char* lang;
  double confidence;
  double score_en;
  double score_klingon;
  double char_rep10;
  double word_rep5;
};

constexpr GoldenStats kGoldenStats[] = {
    {"en", "en", 0x1.8fe4e7b84bd39p-1, 0x1.8fe4e7b84bd39p-1, 0x0p+0, 0x0p+0, 0x0p+0},
    {"de", "de", 0x1.c5605eaf7a8e2p-1, 0x1.ffdd567066c46p-6, 0x0p+0, 0x0p+0, 0x0p+0},
    {"fr", "fr", 0x1.91f4f8316fb4ep-1, 0x1.22550ad7b676ep-5, 0x0p+0, 0x0p+0, 0x0p+0},
    {"es", "es", 0x1.a7eeabb5df38ap-1, 0x1.6c614b0f6d09ap-5, 0x0p+0, 0x0p+0, 0x0p+0},
    {"zh", "zh", 0x1.ffffff9b22cb9p-1, 0x1.b7826efe5507bp-30, 0x0p+0, 0x0p+0, 0x0p+0},
    {"mixed", "en", 0x1.31d6fcf9dce73p-1, 0x1.31d6fcf9dce73p-1, 0x0p+0, 0x0p+0, 0x0p+0},
    {"empty", "es", 0x1.49f21a601d4b4p-2, 0x1.16e04a86f6222p-3, 0x0p+0, 0x0p+0, 0x0p+0},
    {"short", "es", 0x1.49f21a601d4b4p-2, 0x1.16e04a86f6222p-3, 0x0p+0, 0x0p+0, 0x0p+0},
    {"rep_chars", "es", 0x1.49f21a601d44bp-2, 0x1.16e04a86f62e9p-3, 0x0p+0, 0x1.e1e1e1e1e1e1ep-1, 0x0p+0},
    {"rep_words", "en", 0x1.f5fb489d6893cp-1, 0x1.f5fb489d6893cp-1, 0x0p+0, 0x1.a4p-1, 0x1.ap-1},
    {"accents", "de", 0x1.33746561b8648p-2, 0x1.3a9b99ef75ba4p-3, 0x0p+0, 0x0p+0, 0x0p+0},
    {"noise", "es", 0x1.400478c3f86bdp-2, 0x1.18d29fba641f4p-2, 0x0p+0, 0x1.9999999999998p-3, 0x1.e1e1e1e1e1e2p-4},
    {"boilerplate", "en", 0x1.db6f3fef89cfdp-2, 0x1.db6f3fef89cfdp-2, 0x0p+0, 0x1.3425ed097b426p-2, 0x1.0842108421084p-3},
    {"binary", "es", 0x1.26c0bc0e614fap-2, 0x1.d3934b545dd3ep-3, 0x0p+0, 0x0p+0, 0x0p+0},
};

TEST(GoldenStatsTest, PinnedExactly) {
  static_assert(std::size(kGoldenTexts) == std::size(kGoldenStats));
  const LanguageIdentifier& id = LanguageIdentifier::Default();
  for (size_t i = 0; i < std::size(kGoldenTexts); ++i) {
    const GoldenStats& want = kGoldenStats[i];
    std::string_view s = kGoldenTexts[i].text;
    SCOPED_TRACE(kGoldenTexts[i].name);
    ASSERT_STREQ(kGoldenTexts[i].name, want.name);
    LangScore best = id.Identify(s);
    EXPECT_EQ(best.lang, want.lang);
    EXPECT_EQ(best.confidence, want.confidence);
    EXPECT_EQ(id.Score(s, "en"), want.score_en);
    EXPECT_EQ(id.Score(s, "klingon"), want.score_klingon);
    LangVerdict verdict = id.IdentifyAndScore(s, "en");
    EXPECT_EQ(verdict.best.lang, want.lang);
    EXPECT_EQ(verdict.best.confidence, want.confidence);
    EXPECT_EQ(verdict.score, want.score_en);
    EXPECT_EQ(DuplicateNgramRatio(HashedCharNgrams(s, 10)), want.char_rep10);
    EXPECT_EQ(DuplicateNgramRatio(HashedWordNgrams(TokenizeWordsLower(s), 5)),
              want.word_rep5);
  }
}

// ------------------------------------------------- reference kernels ----

// The original node-based algorithms, kept here only as references for the
// flat-table kernels in text/ngram.cc and text/lang_id.cc.

std::vector<uint64_t> RefHashedCharNgrams(std::string_view s, size_t n) {
  std::vector<uint64_t> out;
  for (size_t i = 0; n != 0 && i + n <= s.size(); ++i) {
    out.push_back(Fnv1a64(s.substr(i, n)));
  }
  return out;
}

double RefDuplicateNgramRatio(const std::vector<uint64_t>& gram_hashes) {
  if (gram_hashes.empty()) return 0.0;
  std::unordered_set<uint64_t> unique(gram_hashes.begin(), gram_hashes.end());
  return 1.0 - static_cast<double>(unique.size()) /
                   static_cast<double>(gram_hashes.size());
}

double RefCjkRatio(std::string_view s) {
  size_t pos = 0, total = 0, cjk = 0;
  uint32_t cp;
  while (pos < s.size()) {
    DecodeUtf8(s, &pos, &cp);
    if (IsWhitespaceCp(cp)) continue;
    ++total;
    if (IsCjk(cp)) ++cjk;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(cjk) / static_cast<double>(total);
}

class RefLanguageIdentifier {
 public:
  void AddProfile(const std::string& lang, std::string_view seed_text) {
    Profile* profile = nullptr;
    for (auto& [name, p] : profiles_) {
      if (name == lang) profile = &p;
    }
    if (profile == nullptr) {
      profiles_.emplace_back(lang, Profile{});
      profile = &profiles_.back().second;
    }
    std::unordered_map<uint64_t, double> counts;
    double total = 0;
    for (uint64_t h : RefHashedCharNgrams(AsciiToLower(seed_text), 3)) {
      counts[h] += 1;
      total += 1;
    }
    double denom = total + static_cast<double>(counts.size()) + 1.0;
    for (const auto& [h, c] : counts) {
      profile->log_prob[h] = std::log((c + 1.0) / denom);
    }
    profile->fallback_log_prob = std::log(1.0 / denom) - 1.0;
    profile->cjk_expectation = RefCjkRatio(seed_text);
  }

  LangScore Identify(std::string_view s) const {
    auto scores = Softmax(s);
    if (scores.empty()) return {"und", 0.0};
    auto best = std::max_element(
        scores.begin(), scores.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    return {best->first, best->second / Z(scores)};
  }

  double Score(std::string_view s, std::string_view lang) const {
    auto scores = Softmax(s);
    for (const auto& [l, e] : scores) {
      if (l == lang) return e / Z(scores);
    }
    return 0.0;
  }

 private:
  struct Profile {
    std::unordered_map<uint64_t, double> log_prob;
    double fallback_log_prob = -12.0;
    double cjk_expectation = 0.0;
  };

  static double Z(const std::vector<std::pair<std::string, double>>& e) {
    double z = 0;
    for (const auto& [l, v] : e) z += v;
    return z;
  }

  // exp((logp - max) * 3) per profile, in profile order.
  std::vector<std::pair<std::string, double>> Softmax(
      std::string_view s) const {
    std::vector<std::pair<std::string, double>> scores;
    std::vector<uint64_t> grams = RefHashedCharNgrams(AsciiToLower(s), 3);
    double cjk = RefCjkRatio(s);
    for (const auto& [lang, profile] : profiles_) {
      double logp = 0;
      if (!grams.empty()) {
        for (uint64_t h : grams) {
          auto it = profile.log_prob.find(h);
          logp += it != profile.log_prob.end() ? it->second
                                               : profile.fallback_log_prob;
        }
        logp /= static_cast<double>(grams.size());
      } else {
        logp = profile.fallback_log_prob;
      }
      double mismatch = cjk - profile.cjk_expectation;
      logp -= 6.0 * mismatch * mismatch;
      scores.emplace_back(lang, logp);
    }
    if (scores.empty()) return scores;
    double max_logp = scores[0].second;
    for (const auto& [l, logp] : scores) max_logp = std::max(max_logp, logp);
    for (auto& [l, logp] : scores) logp = std::exp((logp - max_logp) * 3.0);
    return scores;
  }

  std::vector<std::pair<std::string, Profile>> profiles_;
};

// Random text over ASCII letters (both cases), digits, punctuation and
// whitespace; with `utf8`, also accented Latin, CJK, emoji and stray
// continuation / invalid bytes.
std::string RandomText(std::mt19937_64* rng, size_t len, bool utf8) {
  static constexpr std::string_view kAscii =
      "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ 0123456789 .,!?'";
  std::string out;
  while (out.size() < len) {
    uint64_t r = (*rng)();
    if (!utf8 || r % 4 != 0) {
      out.push_back(kAscii[(r >> 8) % kAscii.size()]);
      continue;
    }
    switch ((r >> 8) % 5) {
      case 0:
        EncodeUtf8(0xC0 + static_cast<uint32_t>((r >> 16) % 64), &out);
        break;
      case 1:
      case 2:
        EncodeUtf8(0x4E00 + static_cast<uint32_t>((r >> 16) % 64), &out);
        break;
      case 3:
        EncodeUtf8(0x1F600 + static_cast<uint32_t>((r >> 16) % 16), &out);
        break;
      default:
        out.push_back(static_cast<char>(0x80 + (r >> 16) % 128));
        break;
    }
  }
  return out;
}

TEST(NgramKernelTest, HashedCharNgramsMatchPerWindowFnv) {
  std::mt19937_64 rng(11);
  for (size_t len : {0, 1, 2, 3, 9, 10, 11, 64, 257}) {
    std::string s = RandomText(&rng, len, /*utf8=*/true);
    for (size_t n : {0, 1, 3, 10}) {
      EXPECT_EQ(HashedCharNgrams(s, n), RefHashedCharNgrams(s, n))
          << "len=" << len << " n=" << n;
    }
  }
}

TEST(NgramKernelTest, UniqueCounterMatchesReference) {
  std::mt19937_64 rng(12);
  auto check = [](const std::vector<uint64_t>& v) {
    EXPECT_EQ(DuplicateNgramRatio(v), RefDuplicateNgramRatio(v))
        << "size=" << v.size();
  };
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  for (size_t n : {127, 128, 129, 1000, 1023, 1024, 1025, 4096, 5000}) {
    sizes.push_back(n);
  }
  for (size_t n : sizes) {
    // Distinct-heavy, heavy duplication (8 values), and all-equal.
    for (uint64_t pool : {uint64_t{0}, uint64_t{8}, uint64_t{1}}) {
      std::vector<uint64_t> v(n);
      for (uint64_t& h : v) h = pool == 0 ? rng() : 1 + rng() % pool;
      check(v);
    }
    // Keys sharing their low 32 bits, which an unmixed index would pile
    // into one probe chain.
    std::vector<uint64_t> v(n);
    for (uint64_t& h : v) h = (rng() % (n + 1)) << 32;
    check(v);
  }
  // The zero key lives outside the table: alone, repeated, and mixed in.
  check({0});
  check({0, 0, 0});
  check({0, 5, 0, 5, 7});
  std::vector<uint64_t> with_zero(3000);
  for (uint64_t& h : with_zero) h = rng() % 400;
  check(with_zero);
}

TEST(LangIdKernelTest, MatchesReferenceBitForBit) {
  // Seed profiles from the golden texts so the reference and the kernel
  // start from identical, independently reproducible inputs.
  LanguageIdentifier id;
  RefLanguageIdentifier ref;
  for (const GoldenText& g : kGoldenTexts) {
    id.AddProfile(g.name, g.text);
    ref.AddProfile(g.name, g.text);
  }
  std::mt19937_64 rng(13);
  for (int i = 0; i < 400; ++i) {
    std::string s = RandomText(&rng, rng() % 300, /*utf8=*/i % 2 == 1);
    LangScore got = id.Identify(s);
    LangScore want = ref.Identify(s);
    ASSERT_EQ(got.lang, want.lang) << i;
    ASSERT_EQ(got.confidence, want.confidence) << i;
    for (const GoldenText& g : kGoldenTexts) {
      ASSERT_EQ(id.Score(s, g.name), ref.Score(s, g.name)) << i << g.name;
    }
    ASSERT_EQ(id.Score(s, "klingon"), 0.0);
  }
}

TEST(LangIdKernelTest, ProfilesAddedAfterQueriesMatchReference) {
  LanguageIdentifier id;
  RefLanguageIdentifier ref;
  EXPECT_EQ(id.Identify("anything").lang, "und");
  EXPECT_EQ(id.Score("anything", "en"), 0.0);
  std::mt19937_64 rng(14);
  std::vector<std::string> probes;
  for (int i = 0; i < 50; ++i) {
    probes.push_back(RandomText(&rng, rng() % 200, /*utf8=*/i % 3 == 0));
  }
  probes.push_back("");
  probes.push_back("ab");
  auto agree = [&](const char* step) {
    for (const std::string& s : probes) {
      LangScore got = id.Identify(s);
      LangScore want = ref.Identify(s);
      ASSERT_EQ(got.lang, want.lang) << step;
      ASSERT_EQ(got.confidence, want.confidence) << step;
      for (const char* lang : {"en", "de", "zh"}) {
        ASSERT_EQ(id.Score(s, lang), ref.Score(s, lang)) << step << lang;
      }
    }
  };
  // New profiles between queries, then extending an existing profile with a
  // second seed: its new grams override, its old grams stay, and its
  // fallback moves for every gram it still lacks.
  const std::pair<const char*, const char*> steps[] = {
      {"en", kGoldenTexts[0].text},
      {"de", kGoldenTexts[1].text},
      {"en", kGoldenTexts[12].text},
      {"zh", kGoldenTexts[4].text},
      {"de", ""},
      {"en", kGoldenTexts[9].text},
  };
  for (const auto& [lang, seed] : steps) {
    id.AddProfile(lang, seed);
    ref.AddProfile(lang, seed);
    agree(lang);
  }
  for (int i = 0; i < 20; ++i) {
    std::string seed = RandomText(&rng, 500, /*utf8=*/true);
    const char* lang = i % 2 == 0 ? "en" : "zh";
    id.AddProfile(lang, seed);
    ref.AddProfile(lang, seed);
    agree("random seed");
  }
}

// ------------------------------------------------------------ lang id ----

TEST(LangIdTest, IdentifiesEnglish) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "The committee published a detailed report about the economy and the "
      "people who live in the region.");
  EXPECT_EQ(r.lang, "en");
  EXPECT_GT(r.confidence, 0.5);
}

TEST(LangIdTest, IdentifiesChinese) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "\xe7\xa0\x94\xe7\xa9\xb6\xe4\xba\xba\xe5\x91\x98\xe5\x88\x86\xe6\x9e\x90"
      "\xe4\xba\x86\xe5\xae\x9e\xe9\xaa\x8c\xe7\xbb\x93\xe6\x9e\x9c\xe3\x80\x82");
  EXPECT_EQ(r.lang, "zh");
}

TEST(LangIdTest, IdentifiesGerman) {
  LangScore r = LanguageIdentifier::Default().Identify(
      "die forscher beschreiben das verfahren und die ergebnisse des "
      "experiments mit grosser sorgfalt und vielen worten");
  EXPECT_EQ(r.lang, "de");
}

TEST(LangIdTest, ScoreForLanguage) {
  const auto& id = LanguageIdentifier::Default();
  std::string en = "the researchers describe the results of the experiment";
  EXPECT_GT(id.Score(en, "en"), id.Score(en, "zh"));
  EXPECT_DOUBLE_EQ(id.Score(en, "klingon"), 0.0);
}

TEST(LangIdTest, EmptyInputIsUndetermined) {
  LangScore r = LanguageIdentifier::Default().Identify("");
  EXPECT_LE(r.confidence, 1.0);  // defined behavior, no crash
}

TEST(LangIdTest, CustomProfile) {
  LanguageIdentifier id;
  id.AddProfile("aa", "aaaa aaa aaaa aaa aaaa");
  id.AddProfile("bb", "bbbb bbb bbbb bbb bbbb");
  EXPECT_EQ(id.Identify("aaa aaaa aaa").lang, "aa");
  EXPECT_EQ(id.Identify("bbb bbbb bbb").lang, "bb");
}

// ----------------------------------------------------------- ngram LM ----

TEST(NgramLmTest, TrainingLowersPerplexityOnInDomainText) {
  NgramLm lm;
  for (int i = 0; i < 20; ++i) {
    lm.AddDocument("the quick brown fox jumps over the lazy dog");
  }
  lm.Finalize();
  double in_domain = lm.Perplexity("the quick brown fox");
  double out_domain = lm.Perplexity("zxcvb qwerty asdfgh uiop");
  EXPECT_LT(in_domain, out_domain);
  EXPECT_LT(in_domain, 50.0);
}

TEST(NgramLmTest, EmptyTextSentinel) {
  NgramLm lm;
  lm.Finalize();
  EXPECT_DOUBLE_EQ(lm.Perplexity(""), 1e6);
}

TEST(NgramLmTest, MoreDataImprovesHeldOut) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(
        "the researchers describe the results of the experiment with care");
    corpus.push_back("the committee presents a detailed report every year");
  }
  NgramLm small;
  small.AddDocument(corpus[0]);
  small.Finalize();
  NgramLm large;
  for (const auto& doc : corpus) large.AddDocument(doc);
  large.Finalize();
  // Held-out text from the second document family, which only the larger
  // training set has seen.
  std::string held_out = "the committee presents a detailed report";
  EXPECT_LT(large.Perplexity(held_out), small.Perplexity(held_out));
}

TEST(NgramLmTest, DefaultEnglishPrefersFluentText) {
  const NgramLm& lm = NgramLm::DefaultEnglish();
  double fluent = lm.Perplexity("the model learns to predict the next word");
  double garbage = lm.Perplexity("qq ww ee rr tt yy uu ii oo pp");
  EXPECT_LT(fluent, garbage);
}

TEST(NgramLmTest, SerializeRoundTripPreservesScores) {
  NgramLm lm;
  lm.AddDocument("the quick brown fox jumps over the lazy dog");
  lm.AddDocument("the committee publishes a detailed report every year");
  lm.Finalize();
  std::string blob = lm.Serialize();
  auto restored = NgramLm::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (std::string_view text :
       {"the quick brown fox", "a detailed report", "unseen words here"}) {
    EXPECT_DOUBLE_EQ(restored.value().Perplexity(text), lm.Perplexity(text))
        << text;
  }
  EXPECT_EQ(restored.value().total_tokens(), lm.total_tokens());
  EXPECT_EQ(restored.value().vocab_size(), lm.vocab_size());
  EXPECT_TRUE(restored.value().finalized());
}

TEST(NgramLmTest, DeserializeRejectsCorruption) {
  NgramLm lm;
  lm.AddDocument("some training text for the model");
  std::string blob = lm.Serialize();
  EXPECT_FALSE(NgramLm::Deserialize("garbage").ok());
  EXPECT_FALSE(
      NgramLm::Deserialize(blob.substr(0, blob.size() / 2)).ok());
  blob += "extra";
  EXPECT_FALSE(NgramLm::Deserialize(blob).ok());
}

TEST(NgramLmTest, TokenAndVocabCounters) {
  NgramLm lm;
  lm.AddDocument("a b c a b");
  lm.Finalize();
  EXPECT_EQ(lm.total_tokens(), 5u);
  EXPECT_EQ(lm.vocab_size(), 3u);
}

}  // namespace
}  // namespace dj::text
