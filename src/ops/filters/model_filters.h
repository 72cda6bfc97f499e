#ifndef DJ_OPS_FILTERS_MODEL_FILTERS_H_
#define DJ_OPS_FILTERS_MODEL_FILTERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"
#include "ops/stats_keys.h"
#include "quality/quality_classifier.h"
#include "text/lang_id.h"
#include "text/ngram_lm.h"

namespace dj::ops {

/// language_id_score_filter: identifies the sample language with the
/// char-trigram identifier and keeps samples whose confidence for the
/// configured `lang` (default "en") is >= `min_score` (default 0.8).
/// Writes both stats.lang and stats.lang_score.
class LanguageIdScoreFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit LanguageIdScoreFilter(const json::Value& config);

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  std::string lang_;
  double min_score_;
  const text::LanguageIdentifier* identifier_;  // not owned
};

/// perplexity_filter: keeps samples whose perplexity under the auxiliary
/// n-gram LM is <= `max_ppl` (default 1500); fluent text scores low,
/// garbage scores high.
class PerplexityFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit PerplexityFilter(const json::Value& config);
  /// Injects a custom LM (e.g. trained on in-domain data). Not owned.
  void set_model(const text::NgramLm* model) { model_ = model; }

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  double max_ppl_;
  const text::NgramLm* model_;  // not owned
};

/// quality_score_filter: scores text with the GPT-3-style quality
/// classifier; keeps samples with score >= `min_score` (default 0.5).
class QualityScoreFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit QualityScoreFilter(const json::Value& config);
  void set_classifier(const quality::QualityClassifier* classifier) {
    classifier_ = classifier;
  }

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  double min_score_;
  const quality::QualityClassifier* classifier_;  // not owned
};

}  // namespace dj::ops

#endif  // DJ_OPS_FILTERS_MODEL_FILTERS_H_
