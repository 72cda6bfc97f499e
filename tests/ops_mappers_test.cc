#include <gtest/gtest.h>

#include <random>
#include <string>

#include "json/parser.h"
#include "ops/mappers/clean_mappers.h"
#include "ops/mappers/latex_mappers.h"
#include "ops/mappers/text_mappers.h"
#include "ops/registry.h"
#include "text_kernel_reference.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text = "{}") {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::string Apply(const Mapper& mapper, std::string_view input) {
  auto r = mapper.TransformText(input);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : "";
}

// -------------------------------------------------------------- clean ----

TEST(CleanCopyrightMapperTest, RemovesBlockComment) {
  CleanCopyrightMapper m(Config());
  std::string input =
      "/* Copyright 2020 Someone.\n * All rights reserved. */\nint main() {}";
  EXPECT_EQ(Apply(m, input), "int main() {}");
}

TEST(CleanCopyrightMapperTest, RemovesLineCommentRun) {
  CleanCopyrightMapper m(Config());
  std::string input =
      "// Copyright 2021 Acme\n// Licensed under MIT\n\nint x = 1;\n";
  std::string out = Apply(m, input);
  EXPECT_EQ(out.find("Copyright"), std::string::npos);
  EXPECT_NE(out.find("int x = 1;"), std::string::npos);
}

TEST(CleanCopyrightMapperTest, KeepsNonCopyrightComments) {
  CleanCopyrightMapper m(Config());
  std::string input = "// This explains the algorithm\nint x;";
  EXPECT_EQ(Apply(m, input), input);
}

TEST(CleanCopyrightMapperTest, KeepsMidFileComments) {
  CleanCopyrightMapper m(Config());
  std::string input = "int x;\n/* copyright-ish note */\nint y;";
  EXPECT_EQ(Apply(m, input), input);
}

TEST(CleanEmailMapperTest, RemovesAddresses) {
  CleanEmailMapper m(Config());
  EXPECT_EQ(Apply(m, "mail me at john.doe+x@example.co.uk today"),
            "mail me at  today");
}

TEST(CleanEmailMapperTest, ReplacementToken) {
  CleanEmailMapper m(Config(R"({"repl": "[EMAIL]"})"));
  EXPECT_EQ(Apply(m, "a@b.com"), "[EMAIL]");
}

TEST(CleanEmailMapperTest, IgnoresBareAtSigns) {
  CleanEmailMapper m(Config());
  EXPECT_EQ(Apply(m, "tweet @handle and a @ b"), "tweet @handle and a @ b");
}

TEST(CleanHtmlMapperTest, StripsTagsAndEntities) {
  CleanHtmlMapper m(Config());
  EXPECT_EQ(Apply(m, "<p>A &amp; B</p><div>C</div>"), "A & B\nC\n");
}

TEST(CleanHtmlMapperTest, DropsScriptAndStyleBlocks) {
  CleanHtmlMapper m(Config());
  std::string input =
      "before<script>var x = '<p>';</script>mid<style>p{}</style>after";
  EXPECT_EQ(Apply(m, input), "beforemidafter");
}

TEST(CleanHtmlMapperTest, BrBecomesNewline) {
  CleanHtmlMapper m(Config());
  EXPECT_EQ(Apply(m, "a<br/>b"), "a\nb");
}

TEST(CleanIpMapperTest, RemovesIpv4) {
  CleanIpMapper m(Config());
  EXPECT_EQ(Apply(m, "server at 192.168.0.1 responded"),
            "server at  responded");
}

TEST(CleanIpMapperTest, KeepsVersionsAndBigOctets) {
  CleanIpMapper m(Config());
  EXPECT_EQ(Apply(m, "version 1.2.3.4.5 and 999.1.1.1"),
            "version 1.2.3.4.5 and 999.1.1.1");
}

TEST(CleanLinksMapperTest, RemovesUrls) {
  CleanLinksMapper m(Config());
  EXPECT_EQ(Apply(m, "see https://example.com/a?b=1 and www.test.org."),
            "see  and .");
}

TEST(CleanLinksMapperTest, KeepsWwwInsideWords) {
  CleanLinksMapper m(Config());
  EXPECT_EQ(Apply(m, "wwwhat is this"), "wwwhat is this");
}

// -------------------------------------------------------------- latex ----

TEST(ExpandMacroMapperTest, ExpandsNewcommand) {
  ExpandMacroMapper m(Config());
  std::string input =
      "\\newcommand{\\sys}{Data-Juicer}\nWe present \\sys{} here. \\sys wins.";
  std::string out = Apply(m, input);
  EXPECT_EQ(out.find("\\sys"), std::string::npos);
  EXPECT_NE(out.find("We present Data-Juicer here."), std::string::npos);
  EXPECT_NE(out.find("Data-Juicer wins."), std::string::npos);
}

TEST(ExpandMacroMapperTest, SkipsArgumentedMacros) {
  ExpandMacroMapper m(Config());
  std::string input = "\\newcommand{\\pair}[1]{(#1)} use \\pair{x}";
  EXPECT_EQ(Apply(m, input), input);  // untouched
}

TEST(RemoveBibliographyMapperTest, TruncatesAtBibliography) {
  RemoveBibliographyMapper m(Config());
  std::string input = "body text\n\\begin{thebibliography}{9}\n\\bibitem{x}";
  EXPECT_EQ(Apply(m, input), "body text\n");
}

TEST(RemoveBibliographyMapperTest, ReferencesHeadingNearEnd) {
  RemoveBibliographyMapper m(Config());
  std::string body(300, 'a');
  std::string input = body + "\nReferences\n[1] someone 2020";
  EXPECT_EQ(Apply(m, input), body);
}

TEST(RemoveCommentsMapperTest, RemovesPercentComments) {
  RemoveCommentsMapper m(Config());
  std::string input = "keep this % drop this\n% full line\nnext";
  EXPECT_EQ(Apply(m, input), "keep this \nnext");
}

TEST(RemoveCommentsMapperTest, KeepsEscapedPercent) {
  RemoveCommentsMapper m(Config());
  EXPECT_EQ(Apply(m, "50\\% of cases"), "50\\% of cases");
}

TEST(RemoveHeaderMapperTest, DropsPreambleBeforeBeginDocument) {
  RemoveHeaderMapper m(Config());
  std::string input =
      "\\documentclass{article}\n\\usepackage{x}\n\\begin{document}\nBody";
  EXPECT_EQ(Apply(m, input), "Body");
}

TEST(RemoveHeaderMapperTest, DropsLeadingPreambleLinesWithoutBeginDoc) {
  RemoveHeaderMapper m(Config());
  std::string input = "\\title{T}\n\\author{A}\nActual content here.";
  EXPECT_EQ(Apply(m, input), "Actual content here.");
}

TEST(RemoveTableTextMapperTest, DropsTabularEnvironment) {
  RemoveTableTextMapper m(Config());
  std::string input =
      "before\n\\begin{tabular}{ll}\na & b \\\\\n\\end{tabular}\nafter";
  EXPECT_EQ(Apply(m, input), "before\nafter");
}

TEST(RemoveTableTextMapperTest, DropsMarkdownTableRows) {
  RemoveTableTextMapper m(Config());
  std::string input = "text\n| a | b | c |\n|---|---|---|\nmore text";
  EXPECT_EQ(Apply(m, input), "text\nmore text");
}

// --------------------------------------------------------------- text ----

TEST(FixUnicodeMapperTest, RepairsMojibake) {
  FixUnicodeMapper m(Config());
  EXPECT_EQ(Apply(m, "it\xC3\xA2\xE2\x82\xAC\xE2\x84\xA2s"), "it's");
}

TEST(LowerCaseMapperTest, Lowercases) {
  LowerCaseMapper m(Config());
  EXPECT_EQ(Apply(m, "MiXeD CASE"), "mixed case");
}

TEST(PunctuationNormalizationMapperTest, MapsCurlyQuotes) {
  PunctuationNormalizationMapper m(Config());
  EXPECT_EQ(Apply(m, "\xE2\x80\x9Chi\xE2\x80\x9D"), "\"hi\"");
}

TEST(RemoveLongWordsMapperTest, DropsOverlongWords) {
  RemoveLongWordsMapper m(Config(R"({"max_len": 10})"));
  EXPECT_EQ(Apply(m, "short " + std::string(30, 'x') + " end"), "short end");
}

TEST(RemoveLongWordsMapperTest, CountsCodepointsNotBytes) {
  RemoveLongWordsMapper m(Config(R"({"max_len": 4})"));
  // Four CJK chars = 12 bytes but 4 codepoints: kept.
  std::string cjk = "\xE4\xB8\xAD\xE6\x96\x87\xE4\xB8\xAD\xE6\x96\x87";
  EXPECT_EQ(Apply(m, cjk), cjk);
}

TEST(RemoveRepeatSentencesMapperTest, KeepsFirstOccurrence) {
  RemoveRepeatSentencesMapper m(Config());
  std::string input = "Alpha beta gamma. Second thought. Alpha beta gamma.";
  EXPECT_EQ(Apply(m, input), "Alpha beta gamma. Second thought.");
}

TEST(RemoveSpecificCharsMapperTest, DefaultBullets) {
  RemoveSpecificCharsMapper m(Config());
  EXPECT_EQ(Apply(m, "\xE2\x97\x86item\xE2\x97\x8F"), "item");
}

TEST(RemoveSpecificCharsMapperTest, CustomSet) {
  RemoveSpecificCharsMapper m(Config(R"({"chars_to_remove": "xz"})"));
  EXPECT_EQ(Apply(m, "xyzzy"), "yy");
}

TEST(RemoveWordsWithIncorrectSubstringsMapperTest, DefaultSubstrings) {
  RemoveWordsWithIncorrectSubstringsMapper m(Config());
  EXPECT_EQ(Apply(m, "go to http://x.com now"), "go to now");
}

TEST(RemoveWordsWithIncorrectSubstringsMapperTest, CustomSubstrings) {
  RemoveWordsWithIncorrectSubstringsMapper m(
      Config(R"({"substrings": ["foo"]})"));
  EXPECT_EQ(Apply(m, "foobar keep bazfoo"), "keep ");
}

TEST(SentenceSplitMapperTest, OneSentencePerLine) {
  SentenceSplitMapper m(Config());
  EXPECT_EQ(Apply(m, "One here. Two here! Three?"),
            "One here.\nTwo here!\nThree?");
}

TEST(WhitespaceNormalizationMapperTest, Collapses) {
  WhitespaceNormalizationMapper m(Config());
  EXPECT_EQ(Apply(m, "a   b\n\n\n\nc"), "a b\n\nc");
}

TEST(ChineseConvertMapperTest, TraditionalToSimplified) {
  ChineseConvertMapper m(Config());
  // 國 -> 国, 學 -> 学; untouched chars pass through.
  EXPECT_EQ(Apply(m, "\xE5\x9C\x8B\xE5\xAD\xB8ok"),
            "\xE5\x9B\xBD\xE5\xAD\xA6ok");
}

// ------------------------------------------- reference differentials ----
// The word-dropping mappers and remove_bibliography_mapper must give what
// the bodies in text_kernel_reference.h give.

TEST(WordDroppingReferenceTest, RemoveLongWordsMatchesTheReference) {
  std::mt19937_64 rng(0x10E6);
  for (size_t max_len : {1, 2, 3, 5, 6, 7, 8, 13, 14, 15, 16, 17, 40, 50}) {
    RemoveLongWordsMapper m(
        Config("{\"max_len\": " + std::to_string(max_len) + "}"));
    for (size_t c = 0; c < 8000; ++c) {
      std::string s = reference::KernelFuzzText(rng, max_len);
      if (c % 64 == 0) {
        for (int k = 0; k < 16; ++k) {
          s += reference::KernelFuzzText(rng, max_len);
        }
      }
      ASSERT_EQ(Apply(m, s), reference::RemoveLongWords(s, max_len))
          << "max_len=" << max_len << " case " << c;
    }
  }
}

TEST(WordDroppingReferenceTest, IncorrectSubstringsMatchTheReference) {
  std::mt19937_64 rng(0x5B57);
  const std::vector<std::vector<std::string>> sets = {
      {"http", "www", ".com", "href", "//"},
      {"q"},
      {"\xC3\xA9\xC3\xA9", "References"},
      {"", "x"},
  };
  for (const std::vector<std::string>& subs : sets) {
    std::string config = "{\"substrings\": [";
    for (size_t k = 0; k < subs.size(); ++k) {
      config += (k ? ", \"" : "\"") + subs[k] + "\"";
    }
    config += "]}";
    RemoveWordsWithIncorrectSubstringsMapper m(Config(config));
    auto drop = [&subs](std::string_view word) {
      for (const std::string& sub : subs) {
        if (word.find(sub) != std::string_view::npos) return true;
      }
      return false;
    };
    for (size_t c = 0; c < 25000; ++c) {
      std::string s = reference::KernelFuzzText(rng, 1 + rng() % 6);
      ASSERT_EQ(Apply(m, s), reference::RebuildDroppingWords(s, drop))
          << config << " case " << c;
    }
  }
}

TEST(WordDroppingReferenceTest, RemoveBibliographyMatchesTheReference) {
  RemoveBibliographyMapper m(Config());
  std::mt19937_64 rng(0xB1B);
  for (size_t c = 0; c < 100000; ++c) {
    std::string s = reference::KernelFuzzText(rng, 1 + rng() % 8);
    ASSERT_EQ(Apply(m, s), reference::RemoveBibliography(s)) << "case " << c;
  }
}

TEST(WordDroppingReferenceTest, BenchStyleDocumentsMatchTheReference) {
  RemoveLongWordsMapper long_words(Config(R"({"max_len": 40})"));
  RemoveWordsWithIncorrectSubstringsMapper substrings(Config());
  RemoveBibliographyMapper bibliography(Config());
  auto drop = [](std::string_view word) {
    for (std::string_view sub : {"http", "www", ".com", "href", "//"}) {
      if (word.find(sub) != std::string_view::npos) return true;
    }
    return false;
  };
  for (const std::string& doc : reference::BenchStyleDocuments(300)) {
    ASSERT_EQ(Apply(long_words, doc), reference::RemoveLongWords(doc, 40));
    ASSERT_EQ(Apply(substrings, doc),
              reference::RebuildDroppingWords(doc, drop));
    ASSERT_EQ(Apply(bibliography, doc), reference::RemoveBibliography(doc));
  }
}

// ------------------------------------------------------ base behavior ----

TEST(MapperBaseTest, ProcessRowEditsConfiguredField) {
  LowerCaseMapper m(Config(R"({"text_key": "text.instruction"})"));
  data::Dataset ds = data::Dataset::FromSamples({[] {
    data::Sample s;
    s.Set("text.instruction", json::Value("DO IT"));
    s.Set("text.output", json::Value("OK"));
    return s;
  }()});
  ASSERT_TRUE(m.ProcessRow(ds.Row(0)).ok());
  EXPECT_EQ(ds.GetTextAt(0, "text.instruction"), "do it");
  EXPECT_EQ(ds.GetTextAt(0, "text.output"), "OK");  // untouched
}

TEST(MapperBaseTest, MissingFieldIsNoop) {
  LowerCaseMapper m(Config(R"({"text_key": "absent"})"));
  data::Dataset ds = data::Dataset::FromTexts({"KEEP"});
  ASSERT_TRUE(m.ProcessRow(ds.Row(0)).ok());
  EXPECT_EQ(ds.GetTextAt(0), "KEEP");
}

TEST(MapperBaseTest, EffectiveConfigEchoesParams) {
  RemoveLongWordsMapper m(Config(R"({"max_len": 12})"));
  EXPECT_EQ(m.config().GetInt("max_len", 0), 12);
  EXPECT_EQ(m.config().GetString("text_key", ""), "text");
}

// Idempotency sweep: applying these mappers twice equals applying once
// (a property recipes rely on when re-running after checkpoint recovery).
class IdempotentMapperTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IdempotentMapperTest, DoubleApplicationIsStable) {
  auto op = OpRegistry::Global().Create(GetParam(), Config());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto* mapper = static_cast<Mapper*>(op.value().get());
  std::string input =
      "The  Committee (2020) said: \xE2\x80\x9CVisit https://x.com or "
      "mail a@b.com\xE2\x80\x9D!  See 192.168.0.1.\n\n\nNext   paragraph. "
      "Next   paragraph.";
  std::string once = Apply(*mapper, input);
  std::string twice = Apply(*mapper, once);
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(
    AllIdempotentMappers, IdempotentMapperTest,
    ::testing::Values("clean_email_mapper", "clean_ip_mapper",
                      "clean_links_mapper", "fix_unicode_mapper",
                      "lower_case_mapper", "punctuation_normalization_mapper",
                      "remove_long_words_mapper",
                      "remove_repeat_sentences_mapper",
                      "remove_specific_chars_mapper",
                      "remove_words_with_incorrect_substrings_mapper",
                      "whitespace_normalization_mapper",
                      "chinese_convert_mapper", "clean_copyright_mapper",
                      "remove_bibliography_mapper", "remove_comments_mapper",
                      "remove_table_text_mapper"));

}  // namespace
}  // namespace dj::ops
