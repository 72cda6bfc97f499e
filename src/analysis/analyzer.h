#ifndef DJ_ANALYSIS_ANALYZER_H_
#define DJ_ANALYSIS_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "ops/op_base.h"

namespace dj::analysis {

/// Per-dimension analysis result.
struct DimensionReport {
  std::string stat_key;
  SummaryStats summary;
  Histogram histogram;
};

/// Whole-dataset data probe (paper Sec. 5.2 / Fig. 5 step 1).
struct DataProbe {
  size_t num_samples = 0;
  std::vector<DimensionReport> dimensions;
  /// Top root verbs with their top direct objects (verb-noun diversity of
  /// Fig. 5): pairs of (verb, count) with nested (object, count).
  struct VerbNouns {
    std::string verb;
    size_t count = 0;
    std::vector<std::pair<std::string, size_t>> objects;
  };
  std::vector<VerbNouns> verb_noun_diversity;

  /// Full human-readable report with summaries, histograms and box plots.
  std::string ToString() const;
  /// CSV export of the per-dimension summary (one row per stat).
  std::string SummaryCsv() const;
  /// Structured JSON export (summaries + histogram bins + verb-noun
  /// diversity) for downstream visualization tooling.
  json::Value ToJson() const;
};

/// The Analyzer tool: runs the stats computation of a standard set of
/// filters (13 dimensions by default — the paper's "summary of per-sample
/// statistics covers 13 dimensions") over the dataset WITHOUT filtering
/// anything, then aggregates summaries and histograms per dimension. This
/// reuse of Filter::ComputeStats on the full dataset is exactly what the
/// decoupled stats/process design enables.
class Analyzer {
 public:
  struct Options {
    size_t histogram_bins = 10;
    /// Which field to analyze.
    std::string text_key = "text";
  };

  Analyzer();
  explicit Analyzer(Options options);

  /// Uses the default 13-dimension filter set. The stats pass runs on
  /// `pool` (not owned; nullptr runs it inline); the probe is the same at
  /// every width.
  Result<DataProbe> Analyze(data::Dataset* dataset,
                            ThreadPool* pool = nullptr) const;

  /// Analyzes with a caller-provided filter set (stats are computed, nothing
  /// is dropped), on `pool` as Analyze does.
  Result<DataProbe> AnalyzeWith(
      data::Dataset* dataset,
      const std::vector<std::unique_ptr<ops::Filter>>& filters,
      ThreadPool* pool = nullptr) const;

  /// The default 13 analysis dimensions.
  static std::vector<std::unique_ptr<ops::Filter>> DefaultFilters(
      const std::string& text_key);

 private:
  Options options_;
};

}  // namespace dj::analysis

#endif  // DJ_ANALYSIS_ANALYZER_H_
