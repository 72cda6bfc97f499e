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

LanguageIdScoreFilter::LanguageIdScoreFilter(const json::Value& config)
    : Filter("language_id_score_filter", config),
      lang_(Param("lang", "en")),
      min_score_(Param("min_score", 0.8)),
      identifier_(&text::LanguageIdentifier::Default()) {
  SetEffectiveParam("lang", json::Value(lang_));
  SetEffectiveParam("min_score", json::Value(min_score_));
}

std::vector<std::string> LanguageIdScoreFilter::StatsKeys() const {
  return {std::string(stats_keys::kLang), std::string(stats_keys::kLangScore)};
}

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

PerplexityFilter::PerplexityFilter(const json::Value& config)
    : Filter("perplexity_filter", config),
      max_ppl_(Param("max_ppl", 1500.0)),
      model_(&text::NgramLm::DefaultEnglish()) {
  SetEffectiveParam("max_ppl", json::Value(max_ppl_));
}

std::vector<std::string> PerplexityFilter::StatsKeys() const {
  return {std::string(stats_keys::kPerplexity)};
}

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

QualityScoreFilter::QualityScoreFilter(const json::Value& config)
    : Filter("quality_score_filter", config),
      min_score_(Param("min_score", 0.5)),
      classifier_(&quality::QualityClassifier::DefaultGpt3()) {
  SetEffectiveParam("min_score", json::Value(min_score_));
}

std::vector<std::string> QualityScoreFilter::StatsKeys() const {
  return {std::string(stats_keys::kQualityScore)};
}

Status QualityScoreFilter::ComputeStats(data::RowRef row,
                                        SampleContext*) const {
  if (HasStat(row, stats_keys::kQualityScore)) return Status::Ok();
  double score = classifier_->Score(RowText(row, text_key()));
  return WriteStat(row, stats_keys::kQualityScore, json::Value(score));
}

Result<bool> QualityScoreFilter::KeepRow(data::RowRef row) const {
  return ReadStat(row, stats_keys::kQualityScore, 0.0) >= min_score_;
}

std::vector<OpSchema> ModelFilterSchemas() {
  std::vector<OpSchema> out;
  out.emplace_back(
      OpSchema("language_id_score_filter", OpKind::kFilter)
          .Str("lang", "en", "required language code")
          .Double("min_score", 0.8, 0, 1,
                  "minimum identification confidence"));
  out.emplace_back(OpSchema("perplexity_filter", OpKind::kFilter)
                       .Double("max_ppl", 1500.0, 0, kParamInf,
                               "maximum n-gram LM perplexity"));
  out.emplace_back(OpSchema("quality_score_filter", OpKind::kFilter)
                       .Double("min_score", 0.5, 0, 1,
                               "minimum quality classifier score"));
  return out;
}


std::vector<OpEffects> ModelFilterEffects() {
  namespace sk = stats_keys;
  std::vector<OpEffects> out;
  out.emplace_back(
      OpEffects("language_id_score_filter", Cardinality::kRowDropping)
          .Reads("@text_key")
          .ProducesStat(std::string(sk::kLang))
          .ProducesStat(std::string(sk::kLangScore)));
  out.emplace_back(OpEffects("perplexity_filter", Cardinality::kRowDropping)
                       .Reads("@text_key")
                       .ProducesStat(std::string(sk::kPerplexity)));
  out.emplace_back(OpEffects("quality_score_filter", Cardinality::kRowDropping)
                       .Reads("@text_key")
                       .ProducesStat(std::string(sk::kQualityScore)));
  return out;
}
}  // namespace dj::ops
