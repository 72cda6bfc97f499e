#include "ops/filters/lexicon_filters.h"

#include <cctype>
#include <limits>

namespace dj::ops {
namespace {

namespace sk = stats_keys;
constexpr double kMax = std::numeric_limits<double>::max();

void ExtendFromConfig(const json::Value& config, std::string_view key,
                      text::Lexicon* lexicon) {
  if (!config.is_object()) return;
  const json::Value* list = config.as_object().Find(key);
  if (list == nullptr || !list->is_array()) return;
  for (const auto& v : list->as_array()) {
    if (v.is_string()) lexicon->Add(v.as_string());
  }
}

}  // namespace

// --------------------------------------------------- FlaggedWordsFilter --

const OpDeclaration& FlaggedWordsFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("flagged_words_filter", OpKind::kFilter)
          .KeepRange(0.0, 0.01, 0, 1, "flagged word ratio")
          .List("extra_words", "additional flagged words"),
      OpEffects()
          .Reads("@text_key")
          .ProducesStat(sk::kFlaggedWordsRatio)};
  return d;
}

FlaggedWordsFilter::FlaggedWordsFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config),
      lexicon_(text::Lexicon::FlaggedWords()) {
  ExtendFromConfig(config, "extra_words", &lexicon_);
}

double FlaggedWordsFilter::ComputeValue(std::string_view,
                                        SampleContext* ctx) const {
  const auto& words = ctx->WordsLower();
  if (words.empty()) return 0.0;
  size_t flagged = 0;
  for (const std::string& w : words) {
    if (lexicon_.Contains(w)) ++flagged;
  }
  return static_cast<double>(flagged) / static_cast<double>(words.size());
}

// ------------------------------------------------------ StopwordsFilter --

const OpDeclaration& StopwordsFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("stopwords_filter", OpKind::kFilter)
          .KeepRange(0.1, 1.0, 0, 1, "stopword ratio"),
      OpEffects()
          .Reads("@text_key")
          .ProducesStat(sk::kStopwordsRatio)};
  return d;
}

StopwordsFilter::StopwordsFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double StopwordsFilter::ComputeValue(std::string_view,
                                     SampleContext* ctx) const {
  const auto& words = ctx->WordsLower();
  if (words.empty()) return 0.0;
  const text::Lexicon& stopwords = text::Lexicon::EnglishStopwords();
  size_t hits = 0;
  for (const std::string& w : words) {
    if (stopwords.Contains(w)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(words.size());
}

// ----------------------------------------------------- TextActionFilter --

const OpDeclaration& TextActionFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("text_action_filter", OpKind::kFilter)
          .KeepRange(1, kMax, 0, kParamInf, "action verb count"),
      OpEffects()
          .Reads("@text_key")
          .ProducesStat(sk::kNumActionVerbs)};
  return d;
}

TextActionFilter::TextActionFilter(const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double TextActionFilter::ComputeValue(std::string_view,
                                      SampleContext* ctx) const {
  const text::Lexicon& verbs = text::Lexicon::CommonVerbs();
  size_t count = 0;
  for (const std::string& w : ctx->WordsLower()) {
    if (verbs.Contains(w)) ++count;
  }
  return static_cast<double>(count);
}

// ------------------------------------------ TextEntityDependencyFilter --

const OpDeclaration& TextEntityDependencyFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("text_entity_dependency_filter", OpKind::kFilter)
          .KeepRange(1, kMax, 0, kParamInf, "entity token count"),
      OpEffects()
          .Reads("@text_key")
          .ProducesStat(sk::kNumEntities)};
  return d;
}

TextEntityDependencyFilter::TextEntityDependencyFilter(
    const json::Value& config)
    : RangeStatFilter(Declaration(), config) {}

double TextEntityDependencyFilter::ComputeValue(std::string_view,
                                                SampleContext* ctx) const {
  size_t entities = 0;
  const auto& sentences = ctx->Sentences();
  for (const std::string& sentence : sentences) {
    bool first_word = true;
    size_t i = 0;
    while (i < sentence.size()) {
      while (i < sentence.size() &&
             !std::isalnum(static_cast<unsigned char>(sentence[i]))) {
        ++i;
      }
      size_t start = i;
      while (i < sentence.size() &&
             std::isalnum(static_cast<unsigned char>(sentence[i]))) {
        ++i;
      }
      if (i == start) break;
      std::string_view word(sentence.data() + start, i - start);
      if (!first_word && word.size() >= 2 &&
          std::isupper(static_cast<unsigned char>(word[0])) &&
          std::islower(static_cast<unsigned char>(word[1]))) {
        ++entities;
      }
      first_word = false;
    }
  }
  return static_cast<double>(entities);
}

}  // namespace dj::ops
