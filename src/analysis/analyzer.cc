#include "analysis/analyzer.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "ops/filters/lexicon_filters.h"
#include "ops/filters/model_filters.h"
#include "ops/filters/stats_filters.h"
#include "ops/stats_keys.h"
#include "text/lexicons.h"
#include "text/tokenizer.h"

namespace dj::analysis {
namespace {

json::Value FilterConfig(const std::string& text_key) {
  json::Object config;
  config.Set("text_key", json::Value(text_key));
  return json::Value(std::move(config));
}

}  // namespace

std::string DataProbe::ToString() const {
  std::string out =
      "Data probe over " + std::to_string(num_samples) + " samples\n";
  for (const DimensionReport& dim : dimensions) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n== %-24s count=%zu mean=%.3f std=%.3f ==\n",
                  dim.stat_key.c_str(), dim.summary.count, dim.summary.mean,
                  dim.summary.stddev);
    out += buf;
    out += RenderBoxPlot(dim.summary);
    out += RenderHistogram(dim.histogram);
  }
  if (!verb_noun_diversity.empty()) {
    out += "\n== verb-noun diversity (top root verbs / direct objects) ==\n";
    for (const auto& vn : verb_noun_diversity) {
      out += "  " + vn.verb + " (" + std::to_string(vn.count) + "): ";
      for (size_t i = 0; i < vn.objects.size(); ++i) {
        if (i > 0) out += ", ";
        out += vn.objects[i].first + " x" +
               std::to_string(vn.objects[i].second);
      }
      out += "\n";
    }
  }
  return out;
}

std::string DataProbe::SummaryCsv() const {
  std::string out = "stat,count,mean,stddev,min,p25,median,p75,max\n";
  for (const DimensionReport& dim : dimensions) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s,%zu,%g,%g,%g,%g,%g,%g,%g\n",
                  dim.stat_key.c_str(), dim.summary.count, dim.summary.mean,
                  dim.summary.stddev, dim.summary.min, dim.summary.p25,
                  dim.summary.median, dim.summary.p75, dim.summary.max);
    out += buf;
  }
  return out;
}

json::Value DataProbe::ToJson() const {
  json::Object root;
  root.Set("num_samples", json::Value(static_cast<int64_t>(num_samples)));
  json::Array dims;
  for (const DimensionReport& dim : dimensions) {
    json::Object d;
    d.Set("stat", json::Value(dim.stat_key));
    json::Object summary;
    summary.Set("count", json::Value(static_cast<int64_t>(dim.summary.count)));
    summary.Set("mean", json::Value(dim.summary.mean));
    summary.Set("stddev", json::Value(dim.summary.stddev));
    summary.Set("min", json::Value(dim.summary.min));
    summary.Set("p25", json::Value(dim.summary.p25));
    summary.Set("median", json::Value(dim.summary.median));
    summary.Set("p75", json::Value(dim.summary.p75));
    summary.Set("max", json::Value(dim.summary.max));
    d.Set("summary", json::Value(std::move(summary)));
    json::Object histogram;
    histogram.Set("lo", json::Value(dim.histogram.lo));
    histogram.Set("hi", json::Value(dim.histogram.hi));
    json::Array bins;
    for (size_t count : dim.histogram.bins) {
      bins.emplace_back(static_cast<int64_t>(count));
    }
    histogram.Set("bins", json::Value(std::move(bins)));
    d.Set("histogram", json::Value(std::move(histogram)));
    dims.emplace_back(std::move(d));
  }
  root.Set("dimensions", json::Value(std::move(dims)));
  json::Array verbs;
  for (const VerbNouns& vn : verb_noun_diversity) {
    json::Object v;
    v.Set("verb", json::Value(vn.verb));
    v.Set("count", json::Value(static_cast<int64_t>(vn.count)));
    json::Array objects;
    for (const auto& [object, count] : vn.objects) {
      json::Object o;
      o.Set("object", json::Value(object));
      o.Set("count", json::Value(static_cast<int64_t>(count)));
      objects.emplace_back(std::move(o));
    }
    v.Set("objects", json::Value(std::move(objects)));
    verbs.emplace_back(std::move(v));
  }
  root.Set("verb_noun_diversity", json::Value(std::move(verbs)));
  return json::Value(std::move(root));
}

Analyzer::Analyzer() : Analyzer(Options()) {}
Analyzer::Analyzer(Options options) : options_(std::move(options)) {}

std::vector<std::unique_ptr<ops::Filter>> Analyzer::DefaultFilters(
    const std::string& text_key) {
  json::Value config = FilterConfig(text_key);
  std::vector<std::unique_ptr<ops::Filter>> filters;
  // The 13 default dimensions of the Analyzer.
  filters.push_back(std::make_unique<ops::TextLengthFilter>(config));
  filters.push_back(std::make_unique<ops::WordNumFilter>(config));
  filters.push_back(std::make_unique<ops::TokenNumFilter>(config));
  filters.push_back(std::make_unique<ops::SentenceNumFilter>(config));
  filters.push_back(std::make_unique<ops::ParagraphNumFilter>(config));
  filters.push_back(std::make_unique<ops::AverageLineLengthFilter>(config));
  filters.push_back(std::make_unique<ops::MaximumLineLengthFilter>(config));
  filters.push_back(std::make_unique<ops::AlphanumericFilter>(config));
  filters.push_back(std::make_unique<ops::SpecialCharactersFilter>(config));
  filters.push_back(std::make_unique<ops::CharacterRepetitionFilter>(config));
  filters.push_back(std::make_unique<ops::WordRepetitionFilter>(config));
  filters.push_back(std::make_unique<ops::StopwordsFilter>(config));
  filters.push_back(std::make_unique<ops::FlaggedWordsFilter>(config));
  return filters;
}

Result<DataProbe> Analyzer::Analyze(data::Dataset* dataset) const {
  return AnalyzeWith(dataset, DefaultFilters(options_.text_key));
}

Result<DataProbe> Analyzer::AnalyzeWith(
    data::Dataset* dataset,
    const std::vector<std::unique_ptr<ops::Filter>>& filters) const {
  dataset->EnsureColumn(data::kStatsField);
  ThreadPool pool(static_cast<size_t>(std::max(options_.num_workers, 1)));
  // Single pass: one shared context per sample across all dimensions.
  DJ_RETURN_IF_ERROR(
      ForEachIndex(&pool, dataset->NumRows(), [&](size_t i) -> Status {
        data::RowRef row = dataset->Row(i);
        ops::SampleContext ctx(row.GetText(options_.text_key));
        for (const auto& filter : filters) {
          DJ_RETURN_IF_ERROR(filter->ComputeStats(row, &ctx));
        }
        return Status::Ok();
      }));

  DataProbe probe;
  probe.num_samples = dataset->NumRows();
  for (const auto& filter : filters) {
    for (const std::string& key :
         filter->declaration().effects.stats_produced()) {
      std::vector<double> values;
      values.reserve(dataset->NumRows());
      std::string path = std::string(data::kStatsField) + "." + key;
      for (size_t i = 0; i < dataset->NumRows(); ++i) {
        const json::Value* v = dataset->Row(i).Get(path);
        if (v != nullptr && v->is_number()) values.push_back(v->as_double());
      }
      if (values.empty()) continue;  // non-numeric stats (e.g. lang)
      DimensionReport dim;
      dim.stat_key = key;
      dim.summary = Summarize(values);
      dim.histogram = BuildHistogram(values, options_.histogram_bins);
      probe.dimensions.push_back(std::move(dim));
    }
  }

  // Verb-noun diversity: first common verb in each sample is the "root
  // verb"; the nearest following non-stopword is its "direct object" —
  // a parser-free approximation of the Fig. 5 pie chart.
  const text::Lexicon& verbs = text::Lexicon::CommonVerbs();
  const text::Lexicon& stopwords = text::Lexicon::EnglishStopwords();
  std::map<std::string, std::map<std::string, size_t>> verb_objects;
  std::map<std::string, size_t> verb_counts;
  for (size_t i = 0; i < dataset->NumRows(); ++i) {
    std::vector<std::string> words =
        text::TokenizeWordsLower(dataset->Row(i).GetText(options_.text_key));
    for (size_t w = 0; w < words.size(); ++w) {
      if (!verbs.Contains(words[w])) continue;
      std::string object;
      for (size_t o = w + 1; o < words.size() && o < w + 6; ++o) {
        if (!stopwords.Contains(words[o]) && !verbs.Contains(words[o])) {
          object = words[o];
          break;
        }
      }
      ++verb_counts[words[w]];
      if (!object.empty()) ++verb_objects[words[w]][object];
      break;  // one root verb per sample
    }
  }
  std::vector<std::pair<std::string, size_t>> ranked(verb_counts.begin(),
                                                     verb_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  for (size_t v = 0; v < ranked.size() && v < options_.top_verbs; ++v) {
    DataProbe::VerbNouns vn;
    vn.verb = ranked[v].first;
    vn.count = ranked[v].second;
    std::vector<std::pair<std::string, size_t>> objs(
        verb_objects[vn.verb].begin(), verb_objects[vn.verb].end());
    std::sort(objs.begin(), objs.end(), [](const auto& a, const auto& b) {
      return a.second > b.second ||
             (a.second == b.second && a.first < b.first);
    });
    if (objs.size() > options_.top_objects) {
      objs.resize(options_.top_objects);
    }
    vn.objects = std::move(objs);
    probe.verb_noun_diversity.push_back(std::move(vn));
  }
  return probe;
}

}  // namespace dj::analysis
