#include "hpo/mixing.h"

#include <algorithm>

#include "ops/dedup/document_dedup.h"
#include "text/tokenizer.h"

namespace dj::hpo {
namespace {

uint64_t TokenCount(const data::Dataset& ds) {
  uint64_t total = 0;
  for (size_t i = 0; i < ds.NumRows(); ++i) {
    total += text::CountWords(ds.GetTextAt(i));
  }
  return total;
}

/// The search-space name of source `i`'s weight, "w<i>". Built by append:
/// GCC 12 at -O3 reports a false -Wrestrict on `"w" + std::to_string(i)`.
std::string WeightName(size_t i) {
  std::string name = "w";
  name += std::to_string(i);
  return name;
}

}  // namespace

MixingProblem::MixingProblem(std::vector<data::Dataset> sources,
                             const quality::QualityClassifier* classifier,
                             Options options)
    : sources_(std::move(sources)),
      classifier_(classifier),
      options_(std::move(options)) {
  // Step 2 of the paper's pipeline: language-tag pre-filtering.
  if (!options_.lang_filter.empty()) {
    std::string want = options_.lang_filter;
    std::transform(want.begin(), want.end(), want.begin(), ::tolower);
    for (data::Dataset& source : sources_) {
      std::vector<size_t> keep;
      for (size_t i = 0; i < source.NumRows(); ++i) {
        std::string lang(source.GetTextAt(i, "meta.lang"));
        std::transform(lang.begin(), lang.end(), lang.begin(), ::tolower);
        if (lang == want || lang.empty()) keep.push_back(i);
      }
      source = source.Select(keep);
    }
  }
  for (const data::Dataset& source : sources_) {
    total_tokens_ += TokenCount(source);
  }
}

SearchSpace MixingProblem::Space() const {
  SearchSpace space;
  for (size_t i = 0; i < sources_.size(); ++i) {
    space.Add({WeightName(i), 0.0, 1.0, false, false});
  }
  return space;
}

data::Dataset MixingProblem::BuildMixture(const ParamSet& weights,
                                          double budget, Rng* rng) const {
  data::Dataset mix;
  for (size_t s = 0; s < sources_.size(); ++s) {
    double w = weights.Get(WeightName(s), 0.0);
    w = std::clamp(w * budget, 0.0, 1.0);
    const data::Dataset& source = sources_[s];
    std::vector<size_t> chosen;
    for (size_t i = 0; i < source.NumRows(); ++i) {
      if (rng->Bernoulli(w)) chosen.push_back(i);
    }
    mix.Concat(source.Select(chosen));
  }
  return mix;
}

double MixingProblem::Evaluate(const ParamSet& weights, double budget) const {
  Rng rng(options_.seed);  // fixed seed: the objective is deterministic
  data::Dataset mix = BuildMixture(weights, budget, &rng);
  if (options_.dedup) {
    json::Value config{json::Object()};
    ops::DocumentExactDeduplicator dedup(config);
    auto result = dedup.Deduplicate(std::move(mix), nullptr, nullptr);
    if (!result.ok()) return 0.0;
    mix = std::move(result).value();
  }
  if (mix.NumRows() == 0 || total_tokens_ == 0) return 0.0;
  // n / N term.
  double volume = static_cast<double>(TokenCount(mix)) /
                  (static_cast<double>(total_tokens_) * std::max(budget, 1e-9));
  // s term: average quality score over a bounded sample.
  size_t n_score = std::min(options_.score_sample, mix.NumRows());
  double score_sum = 0;
  for (size_t i = 0; i < n_score; ++i) {
    size_t idx = i * mix.NumRows() / n_score;  // deterministic stride
    score_sum += classifier_->Score(mix.GetTextAt(idx));
  }
  double s = n_score > 0 ? score_sum / static_cast<double>(n_score) : 0.0;
  return volume + s;
}

data::Dataset MixingProblem::Mix(const ParamSet& weights) const {
  Rng rng(options_.seed);
  return BuildMixture(weights, 1.0, &rng);
}

}  // namespace dj::hpo
