// Fig. 9 reproduction: time before/after OP fusion on three dataset sizes,
// with the paper's 14-OP recipe shape (5 Mappers, 8 Filters,
// 1 Deduplicator); with fusion on, the 8 filters run as one stage.
//
// Paper: fusion saves up to 24.91% of total time and up to 42.04% on the
// fusible OPs; the effect holds across dataset sizes and process counts.

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "ops/registry.h"
#include "ops/sample_context.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;
using dj::bench::FmtPct;

std::vector<std::unique_ptr<dj::ops::Op>> FourteenOpRecipe() {
  auto recipe = dj::core::Recipe::FromString(R"(
process:
  - whitespace_normalization_mapper:
  - fix_unicode_mapper:
  - punctuation_normalization_mapper:
  - remove_long_words_mapper:
  - clean_links_mapper:
  - text_length_filter:
      min: 10
  - word_num_filter:
      min: 5
  - stopwords_filter:
      min: 0.02
  - flagged_words_filter:
      max: 0.3
  - word_repetition_filter:
      max: 0.9
  - average_line_length_filter:
      min: 2
  - alphanumeric_filter:
      min: 0.1
  - special_characters_filter:
      max: 0.6
  - document_exact_deduplicator:
)");
  return dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global())
      .value();
}

struct RunResult {
  double total_seconds = 0;
  double filter_seconds = 0;  // time inside the filter units or stage
  uint64_t context_computations = 0;
  size_t rows_out = 0;
};

RunResult RunOnce(const dj::data::Dataset& data, bool fusion, int np) {
  auto ops = FourteenOpRecipe();
  dj::core::Executor::Options options;
  options.num_workers = np;
  options.op_fusion = fusion;
  dj::core::Executor executor(options);
  dj::ops::SampleContext::Counters::Reset();
  dj::core::RunReport report;
  dj::Stopwatch watch;
  auto result = executor.Run(data, ops, &report);
  RunResult out;
  out.total_seconds = watch.ElapsedSeconds();
  out.context_computations = dj::ops::SampleContext::Counters::Total();
  out.rows_out = result.ok() ? result.value().NumRows() : 0;
  for (const auto& op_report : report.op_reports) {
    if (op_report.kind == "filter" || op_report.kind == "fused_filter") {
      out.filter_seconds += op_report.seconds;
    }
  }
  return out;
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Figure 9: OP fusion time savings",
      "Fig. 9 — up to 24.91% total / 42.04% fusible-OP time saved across "
      "3 dataset sizes");

  struct Size {
    const char* name;
    size_t docs;
    int np;
  };
  constexpr Size kSizes[] = {{"small", 300, 1},
                             {"medium", 1200, 1},
                             {"large", 3000, 4}};

  dj::bench::Table table({"dataset", "#docs", "np", "t_no_fusion",
                          "t_fusion", "total_saved", "filter_saved",
                          "ctx_no_fusion", "ctx_fusion", "rows_match"});
  dj::bench::JsonReport json_report("fig9_op_fusion", "Fig. 9");
  for (const Size& size : kSizes) {
    dj::workload::CorpusOptions options;
    options.style = dj::workload::Style::kCrawl;
    options.num_docs = size.docs;
    options.exact_dup_rate = 0.15;
    options.spam_rate = 0.3;
    options.short_doc_rate = 0.1;
    options.seed = 90 + size.docs;
    dj::data::Dataset data =
        dj::workload::CorpusGenerator(options).Generate();

    // Two timed repetitions, keep the faster (steadier on a busy machine).
    RunResult plain = RunOnce(data, false, size.np);
    RunResult plain2 = RunOnce(data, false, size.np);
    if (plain2.total_seconds < plain.total_seconds) plain = plain2;
    RunResult fused = RunOnce(data, true, size.np);
    RunResult fused2 = RunOnce(data, true, size.np);
    if (fused2.total_seconds < fused.total_seconds) fused = fused2;

    std::string cell = size.name;
    json_report.Add(cell + ".seconds_no_fusion", plain.total_seconds);
    json_report.Add(cell + ".seconds_fusion", fused.total_seconds);
    json_report.Add(cell + ".total_saved",
                    1.0 - fused.total_seconds / plain.total_seconds);
    json_report.Add(cell + ".filter_saved",
                    1.0 - fused.filter_seconds / plain.filter_seconds);
    table.Row({size.name, std::to_string(size.docs),
               std::to_string(size.np), Fmt(plain.total_seconds, 3),
               Fmt(fused.total_seconds, 3),
               FmtPct(1.0 - fused.total_seconds / plain.total_seconds),
               FmtPct(1.0 - fused.filter_seconds / plain.filter_seconds),
               std::to_string(plain.context_computations),
               std::to_string(fused.context_computations),
               plain.rows_out == fused.rows_out ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nexpected shape: positive savings in every row, larger on the\n"
      "filter portion; context computations drop because the stage's\n"
      "filters share one SampleContext per sample (paper Sec. 7).\n");
  json_report.Write();
  return 0;
}
