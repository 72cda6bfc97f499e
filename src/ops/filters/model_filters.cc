#include "ops/filters/model_filters.h"

namespace dj::ops {
namespace {

std::string_view RowText(data::RowRef row, const std::string& key) {
  const json::Value* v = row.Get(key);
  if (v == nullptr || !v->is_string()) return {};
  return v->as_string();
}

}  // namespace

// ----------------------------------------------- LanguageIdScoreFilter --

const OpDeclaration& LanguageIdScoreFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("language_id_score_filter", OpKind::kFilter)
          .Str("lang", "en", "required language code")
          .Double("min_score", 0.8, 0, 1,
                  "minimum identification confidence"),
      OpEffects()
          .Reads("@text_key")
          .ProducesStat(stats_keys::kLang)
          .ProducesStat(stats_keys::kLangScore)};
  return d;
}

LanguageIdScoreFilter::LanguageIdScoreFilter(const json::Value& config)
    : Filter(Declaration(), config),
      lang_(Param<std::string>("lang")),
      min_score_(Param<double>("min_score")),
      identifier_(&text::LanguageIdentifier::Default()) {}

Status LanguageIdScoreFilter::ComputeStats(data::RowRef row,
                                           SampleContext*) const {
  if (HasStat(row, stats_keys::kLangScore)) return Status::Ok();
  text::LangVerdict verdict =
      identifier_->IdentifyAndScore(RowText(row, text_key()), lang_);
  DJ_RETURN_IF_ERROR(
      WriteStat(row, stats_keys::kLang, json::Value(verdict.best.lang)));
  return WriteStat(row, stats_keys::kLangScore, json::Value(verdict.score));
}

Result<bool> LanguageIdScoreFilter::KeepRow(data::RowRef row) const {
  return ReadStat(row, stats_keys::kLangScore, 0.0) >= min_score_;
}

// ---------------------------------------------------- PerplexityFilter --

const OpDeclaration& PerplexityFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("perplexity_filter", OpKind::kFilter)
          .Double("max_ppl", 1500.0, 0, kParamInf,
                  "maximum n-gram LM perplexity"),
      OpEffects().Reads("@text_key").ProducesStat(stats_keys::kPerplexity)};
  return d;
}

PerplexityFilter::PerplexityFilter(const json::Value& config)
    : Filter(Declaration(), config),
      max_ppl_(Param<double>("max_ppl")),
      model_(&text::NgramLm::DefaultEnglish()) {}

Status PerplexityFilter::ComputeStats(data::RowRef row,
                                      SampleContext*) const {
  if (HasStat(row, stats_keys::kPerplexity)) return Status::Ok();
  double ppl = model_->Perplexity(RowText(row, text_key()));
  return WriteStat(row, stats_keys::kPerplexity, json::Value(ppl));
}

Result<bool> PerplexityFilter::KeepRow(data::RowRef row) const {
  return ReadStat(row, stats_keys::kPerplexity, 1e9) <= max_ppl_;
}

// -------------------------------------------------- QualityScoreFilter --

const OpDeclaration& QualityScoreFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("quality_score_filter", OpKind::kFilter)
          .Double("min_score", 0.5, 0, 1, "minimum quality classifier score"),
      OpEffects().Reads("@text_key").ProducesStat(stats_keys::kQualityScore)};
  return d;
}

QualityScoreFilter::QualityScoreFilter(const json::Value& config)
    : Filter(Declaration(), config),
      min_score_(Param<double>("min_score")),
      classifier_(&quality::QualityClassifier::DefaultGpt3()) {}

Status QualityScoreFilter::ComputeStats(data::RowRef row,
                                        SampleContext*) const {
  if (HasStat(row, stats_keys::kQualityScore)) return Status::Ok();
  double score = classifier_->Score(RowText(row, text_key()));
  return WriteStat(row, stats_keys::kQualityScore, json::Value(score));
}

Result<bool> QualityScoreFilter::KeepRow(data::RowRef row) const {
  return ReadStat(row, stats_keys::kQualityScore, 0.0) >= min_score_;
}

}  // namespace dj::ops
