#ifndef DJ_OPS_FILTERS_LEXICON_FILTERS_H_
#define DJ_OPS_FILTERS_LEXICON_FILTERS_H_

#include <string>
#include <vector>

#include "ops/filters/stats_filters.h"
#include "text/lexicons.h"

namespace dj::ops {

/// flagged_words_filter: ratio of flagged (spam/unsafe) words; keeps samples
/// with ratio <= max (default 0.01). Extra words via `extra_words` list.
class FlaggedWordsFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit FlaggedWordsFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;

 private:
  text::Lexicon lexicon_;
};

/// stopwords_filter: ratio of stopwords among words; fluent prose has a
/// substantial stopword share, so keeps samples with ratio >= min
/// (default 0.1).
class StopwordsFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit StopwordsFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// text_action_filter: number of action verbs present; post-tuning prompts
/// should contain at least `min` (default 1) actionable verb.
class TextActionFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit TextActionFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

/// text_entity_dependency_filter: counts "entity" tokens (capitalized words
/// that are not sentence-initial, plus numbers with units) as a dependency-
/// parse-free proxy for the paper's entity dependency filter; keeps samples
/// with count within [min, max].
class TextEntityDependencyFilter : public RangeStatFilter {
 public:
  static const OpDeclaration& Declaration();
  explicit TextEntityDependencyFilter(const json::Value& config);
  double ComputeValue(std::string_view text, SampleContext* ctx) const override;
};

}  // namespace dj::ops

#endif  // DJ_OPS_FILTERS_LEXICON_FILTERS_H_
