#include "ops/filters/stats_filters.h"

#include <limits>

#include "text/ngram.h"
#include "text/tokenizer.h"
#include "text/utf8.h"

namespace dj::ops {
namespace {

namespace sk = stats_keys;
constexpr double kMax = std::numeric_limits<double>::max();

}  // namespace

// ------------------------------------------------------- RangeStatFilter --

RangeStatFilter::RangeStatFilter(const OpDeclaration& declaration,
                                 const json::Value& config)
    : Filter(declaration, config),
      stat_key_(declaration.effects.stats_produced().front()),
      min_(Param<double>("min")),
      max_(Param<double>("max")) {}

Status RangeStatFilter::ComputeStats(data::RowRef row,
                                     SampleContext* ctx) const {
  if (HasStat(row, stat_key_)) return Status::Ok();
  const json::Value* v = row.Get(text_key());
  std::string_view text =
      (v != nullptr && v->is_string()) ? std::string_view(v->as_string())
                                       : std::string_view();
  return WriteStat(row, stat_key_, json::Value(ComputeValue(text, ctx)));
}

Result<bool> RangeStatFilter::KeepRow(data::RowRef row) const {
  double value = ReadStat(row, stat_key_, std::numeric_limits<double>::lowest());
  return value >= min_ && value <= max_;
}

// --------------------------------------------------- AlphanumericFilter --

const OpDeclaration& AlphanumericFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("alphanumeric_filter", OpKind::kFilter)
          .KeepRange(0.25, 1.0, 0, 1, "alphanumeric codepoint ratio"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kAlnumRatio)};
  return d;
}

AlphanumericFilter::AlphanumericFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double AlphanumericFilter::ComputeValue(std::string_view text,
                                        SampleContext*) const {
  size_t pos = 0, total = 0, alnum = 0;
  uint32_t cp;
  while (pos < text.size()) {
    text::DecodeUtf8(text, &pos, &cp);
    ++total;
    if (text::IsAsciiAlnum(cp) || text::IsCjk(cp)) ++alnum;
  }
  return total == 0 ? 0.0 : static_cast<double>(alnum) / total;
}

// ---------------------------------------------- AverageLineLengthFilter --

const OpDeclaration& AverageLineLengthFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("average_line_length_filter", OpKind::kFilter)
          .KeepRange(10, kMax, 0, kParamInf, "mean line length"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kAvgLineLength)};
  return d;
}

AverageLineLengthFilter::AverageLineLengthFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double AverageLineLengthFilter::ComputeValue(std::string_view,
                                             SampleContext* ctx) const {
  const auto& lines = ctx->Lines();
  if (lines.empty()) return 0.0;
  size_t total = 0;
  for (const std::string& line : lines) total += text::CodepointCount(line);
  return static_cast<double>(total) / static_cast<double>(lines.size());
}

// -------------------------------------------- CharacterRepetitionFilter --

const OpDeclaration& CharacterRepetitionFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("character_repetition_filter", OpKind::kFilter)
          .KeepRange(0.0, 0.5, 0, 1, "duplicated char-n-gram ratio")
          .Int("rep_len", 10, 1, kParamInf, "character n-gram length"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kCharRepRatio)};
  return d;
}

CharacterRepetitionFilter::CharacterRepetitionFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config),
      rep_len_(Param<int64_t>("rep_len")) {}

double CharacterRepetitionFilter::ComputeValue(std::string_view text,
                                               SampleContext*) const {
  return text::DuplicateNgramRatio(
      text::HashedCharNgrams(text, static_cast<size_t>(rep_len_)));
}

// ----------------------------------------------- MaximumLineLengthFilter --

const OpDeclaration& MaximumLineLengthFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("maximum_line_length_filter", OpKind::kFilter)
          .KeepRange(10, kMax, 0, kParamInf, "longest line length"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kMaxLineLength)};
  return d;
}

MaximumLineLengthFilter::MaximumLineLengthFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double MaximumLineLengthFilter::ComputeValue(std::string_view,
                                             SampleContext* ctx) const {
  size_t max_len = 0;
  for (const std::string& line : ctx->Lines()) {
    size_t len = text::CodepointCount(line);
    if (len > max_len) max_len = len;
  }
  return static_cast<double>(max_len);
}

// ---------------------------------------------- SpecialCharactersFilter --

const OpDeclaration& SpecialCharactersFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("special_characters_filter", OpKind::kFilter)
          .KeepRange(0.0, 0.25, 0, 1, "special character ratio"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kSpecialCharRatio)};
  return d;
}

SpecialCharactersFilter::SpecialCharactersFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double SpecialCharactersFilter::ComputeValue(std::string_view text,
                                             SampleContext*) const {
  size_t pos = 0, total = 0, special = 0;
  uint32_t cp;
  while (pos < text.size()) {
    text::DecodeUtf8(text, &pos, &cp);
    ++total;
    if (!text::IsAsciiAlnum(cp) && !text::IsCjk(cp) &&
        !text::IsWhitespaceCp(cp)) {
      ++special;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(special) / total;
}

// ------------------------------------------------------ TextLengthFilter --

const OpDeclaration& TextLengthFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("text_length_filter", OpKind::kFilter)
          .KeepRange(10, kMax, 0, kParamInf, "text length in codepoints"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kTextLength)};
  return d;
}

TextLengthFilter::TextLengthFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double TextLengthFilter::ComputeValue(std::string_view text,
                                      SampleContext*) const {
  return static_cast<double>(text::CodepointCount(text));
}

// -------------------------------------------------------- TokenNumFilter --

const OpDeclaration& TokenNumFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("token_num_filter", OpKind::kFilter)
          .KeepRange(10, kMax, 0, kParamInf, "approximate token count"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kNumTokens)};
  return d;
}

TokenNumFilter::TokenNumFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double TokenNumFilter::ComputeValue(std::string_view text,
                                    SampleContext*) const {
  return static_cast<double>(text::ApproxLlmTokenCount(text));
}

// --------------------------------------------------------- WordNumFilter --

const OpDeclaration& WordNumFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("word_num_filter", OpKind::kFilter)
          .KeepRange(10, kMax, 0, kParamInf, "word count"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kNumWords)};
  return d;
}

WordNumFilter::WordNumFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double WordNumFilter::ComputeValue(std::string_view,
                                   SampleContext* ctx) const {
  return static_cast<double>(ctx->Words().size());
}

// -------------------------------------------------- WordRepetitionFilter --

const OpDeclaration& WordRepetitionFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("word_repetition_filter", OpKind::kFilter)
          .KeepRange(0.0, 0.6, 0, 1, "duplicated word-n-gram ratio")
          .Int("rep_len", 5, 1, kParamInf, "word n-gram length"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kWordRepRatio)};
  return d;
}

WordRepetitionFilter::WordRepetitionFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config),
      rep_len_(Param<int64_t>("rep_len")) {}

double WordRepetitionFilter::ComputeValue(std::string_view,
                                          SampleContext* ctx) const {
  return text::DuplicateNgramRatio(
      text::HashedWordNgrams(ctx->WordsLower(), static_cast<size_t>(rep_len_)));
}

// ---------------------------------------------------- ParagraphNumFilter --

const OpDeclaration& ParagraphNumFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("paragraph_num_filter", OpKind::kFilter)
          .KeepRange(1, kMax, 0, kParamInf, "paragraph count"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kNumParagraphs)};
  return d;
}

ParagraphNumFilter::ParagraphNumFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double ParagraphNumFilter::ComputeValue(std::string_view,
                                        SampleContext* ctx) const {
  return static_cast<double>(ctx->Paragraphs().size());
}

// ----------------------------------------------------- SentenceNumFilter --

const OpDeclaration& SentenceNumFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("sentence_num_filter", OpKind::kFilter)
          .KeepRange(1, kMax, 0, kParamInf, "sentence count"),
      OpEffects().Reads("@text_key").ProducesStat(sk::kNumSentences)};
  return d;
}

SentenceNumFilter::SentenceNumFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double SentenceNumFilter::ComputeValue(std::string_view,
                                       SampleContext* ctx) const {
  return static_cast<double>(ctx->Sentences().size());
}

}  // namespace dj::ops
