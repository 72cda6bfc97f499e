// Ablation: what does the Sec. 7 filter stage buy?
// Compares
//   (a) baseline — one Executor::Run per OP, no shared contexts across OPs
//   (b) +fusion  — one Run, where the 8 filters are one stage in recipe
//                  order: one pass, shared contexts, stop at the first
//                  rejection (the Fig. 9 configuration)
// on a recipe that lists its most expensive filter (perplexity) first.
// Both configurations produce identical outputs; only cost moves.

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/executor.h"
#include "data/io.h"
#include "ops/registry.h"
#include "ops/sample_context.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;
using dj::bench::FmtPct;

std::vector<std::unique_ptr<dj::ops::Op>> Recipe14() {
  auto recipe = dj::core::Recipe::FromString(R"(
process:
  - whitespace_normalization_mapper:
  - fix_unicode_mapper:
  - punctuation_normalization_mapper:
  - remove_long_words_mapper:
  - clean_links_mapper:
  - perplexity_filter:
      max_ppl: 100000
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
  - special_characters_filter:
      max: 0.6
  - document_exact_deduplicator:
)");
  return dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global())
      .value();
}

struct Outcome {
  double seconds = 0;
  uint64_t contexts = 0;
  size_t rows = 0;
  std::string jsonl;  // the result, compared byte for byte across arms
};

Outcome Measure(const dj::data::Dataset& data, bool fusion) {
  Outcome best;
  best.seconds = 1e18;
  for (int rep = 0; rep < 3; ++rep) {  // keep the steadier run
    auto ops = Recipe14();
    dj::core::Executor executor(dj::core::Executor::Options{});
    dj::data::Dataset input = data;
    dj::ops::SampleContext::Counters::Reset();
    dj::Stopwatch watch;
    auto result =
        dj::bench::RunStagedOrPerOp(executor, std::move(input), ops, fusion);
    double seconds = watch.ElapsedSeconds();
    if (!result.ok()) continue;
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.contexts = dj::ops::SampleContext::Counters::Total();
      best.rows = result.value().NumRows();
      best.jsonl = dj::data::ToJsonl(result.value());
    }
  }
  return best;
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Ablation: context sharing / OP fusion",
      "Sec. 7 — what the filter stage saves over per-OP execution");

  dj::workload::CorpusOptions corpus;
  corpus.style = dj::workload::Style::kCrawl;
  corpus.num_docs = 1500;
  corpus.exact_dup_rate = 0.15;
  corpus.spam_rate = 0.3;
  corpus.short_doc_rate = 0.1;
  corpus.seed = 61;
  dj::data::Dataset data = dj::workload::CorpusGenerator(corpus).Generate();
  std::printf("corpus: %zu docs; recipe: 14 OPs incl. an expensive "
              "perplexity filter\n",
              data.NumRows());

  Outcome base = Measure(data, false);
  Outcome fusion = Measure(data, true);

  dj::bench::Table table({"configuration", "time_s", "saved_vs_base",
                          "shared_ctx_computations", "rows_out"});
  auto row = [&](const char* name, const Outcome& o) {
    table.Row({name, Fmt(o.seconds, 3),
               FmtPct(1.0 - o.seconds / base.seconds),
               std::to_string(o.contexts), std::to_string(o.rows)});
  };
  row("baseline (no opts)", base);
  row("+ fusion (stage, recipe order)", fusion);
  table.Print();

  bool identical = !base.jsonl.empty() && base.jsonl == fusion.jsonl;
  std::printf(
      "\noutputs identical across configurations: %s\n"
      "expected shape: the stage cuts shared-context computations and\n"
      "most of the time.\n",
      identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
