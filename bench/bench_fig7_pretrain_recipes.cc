// Fig. 7 reproduction: reference models pre-trained on three data recipes
// at increasing token budgets, evaluated on the 16-task proxy suite.
//
// Paper series: RedPajama-only, RedPajama+Pile (simple union), and the
// Data-Juicer refined recipe. At every budget the refined recipe wins.
// Budgets are scaled from the paper's 50B/100B/150B to simulator-sized
// 50k/100k/150k tokens.

#include "bench_util.h"
#include "common/random.h"
#include "core/executor.h"
#include "eval/benchmarks.h"
#include "eval/scaling.h"
#include "eval/trainer.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;

// Raw RedPajama-style mixture: crawl-heavy with arXiv and Q&A subsets.
dj::data::Dataset RedpajamaLike(uint64_t seed) {
  dj::workload::CorpusOptions crawl;
  crawl.style = dj::workload::Style::kCrawl;
  crawl.num_docs = 1400;
  crawl.exact_dup_rate = 0.30;
  crawl.spam_rate = 0.6;
  crawl.noise_rate = 0.4;
  crawl.boilerplate_rate = 0.5;
  crawl.seed = seed;
  dj::data::Dataset ds = dj::workload::CorpusGenerator(crawl).Generate();

  dj::workload::CorpusOptions arxiv;
  arxiv.style = dj::workload::Style::kArxiv;
  arxiv.num_docs = 250;
  arxiv.seed = seed + 1;
  ds.Concat(dj::workload::CorpusGenerator(arxiv).Generate());

  dj::workload::CorpusOptions qa;
  qa.style = dj::workload::Style::kStackExchange;
  qa.num_docs = 350;
  qa.exact_dup_rate = 0.15;
  qa.seed = seed + 2;
  ds.Concat(dj::workload::CorpusGenerator(qa).Generate());
  return ds;
}

// Pile-style addition: books + wiki + code, with its own noise profile.
dj::data::Dataset PileLike(uint64_t seed) {
  dj::workload::CorpusOptions books;
  books.style = dj::workload::Style::kBooks;
  books.num_docs = 300;
  books.seed = seed;
  dj::data::Dataset ds = dj::workload::CorpusGenerator(books).Generate();

  dj::workload::CorpusOptions web;
  web.style = dj::workload::Style::kWeb;
  web.num_docs = 500;
  web.exact_dup_rate = 0.2;
  web.spam_rate = 0.3;
  web.seed = seed + 1;
  ds.Concat(dj::workload::CorpusGenerator(web).Generate());
  return ds;
}

dj::data::Dataset Refine(const dj::data::Dataset& raw) {
  auto recipe = dj::core::Recipe::FromString(R"(
process:
  - remove_header_mapper:
  - remove_comments_mapper:
  - remove_bibliography_mapper:
  - remove_table_text_mapper:
  - fix_unicode_mapper:
  - clean_links_mapper:
  - whitespace_normalization_mapper:
  - remove_long_words_mapper:
      max_len: 40
  - text_length_filter:
      min: 60
  - word_num_filter:
      min: 15
  - stopwords_filter:
      min: 0.05
  - flagged_words_filter:
      max: 0.02
  - word_repetition_filter:
      max: 0.7
  - special_characters_filter:
      max: 0.5
  - document_exact_deduplicator:
  - paragraph_exact_deduplicator:
)");
  auto ops =
      dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global());
  dj::core::Executor executor({});
  return executor.Run(raw, ops.value(), nullptr).value();
}

/// Shuffles rows (seeded) so a fixed token budget samples all subsets of a
/// concatenated mixture instead of only its head.
dj::data::Dataset Shuffled(const dj::data::Dataset& data, uint64_t seed) {
  std::vector<size_t> indices(data.NumRows());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  dj::Rng rng(seed);
  rng.Shuffle(&indices);
  return data.Select(indices);
}

double ScoreAt(const dj::data::Dataset& data, uint64_t budget,
               const dj::eval::BenchmarkSuite& suite) {
  dj::eval::TrainOptions train;
  train.token_budget = budget;
  train.max_epochs = 2;
  auto model = dj::eval::PretrainReferenceModel(data, train);
  return dj::eval::BenchmarkSuite::AverageScore(suite.Evaluate(model.model));
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Figure 7: pre-training data recipes vs token budget",
      "Fig. 7 — Data-Juicer (RedPajama+Pile) > RedPajama+Pile union > "
      "RedPajama, at 50B/100B/150B tokens (scaled to 50k/100k/150k)");

  dj::data::Dataset redpajama = Shuffled(RedpajamaLike(100), 1);
  dj::data::Dataset pile = PileLike(200);
  dj::data::Dataset union_raw = redpajama;
  union_raw.Concat(pile);
  union_raw = Shuffled(union_raw, 2);
  dj::data::Dataset refined = Refine(union_raw);
  std::printf("corpora: redpajama-like %zu docs | +pile union %zu docs | "
              "refined %zu docs\n",
              redpajama.NumRows(), union_raw.NumRows(), refined.NumRows());

  dj::eval::BenchmarkSuite suite = dj::eval::BenchmarkSuite::CoreSuite();
  dj::bench::Table table(
      {"tokens", "RedPajama", "RedPajama+Pile", "Data-Juicer(RP+Pile)"});
  const uint64_t kBudgets[] = {50'000, 100'000, 150'000};
  std::vector<dj::eval::ScalingPoint> dj_curve;
  for (uint64_t budget : kBudgets) {
    double rp = ScoreAt(redpajama, budget, suite);
    double rp_pile = ScoreAt(union_raw, budget, suite);
    double dj_score = ScoreAt(refined, budget, suite);
    dj_curve.push_back({budget, dj_score});
    table.Row({std::to_string(budget / 1000) + "k", Fmt(rp), Fmt(rp_pile),
               Fmt(dj_score)});
  }
  table.Print();

  // Sec. 5.3 scaling prediction: extrapolate the refined-recipe curve.
  auto fit = dj::eval::ScalingLaw::Fit(dj_curve);
  if (fit.ok()) {
    std::printf("\nscaling fit on the Data-Juicer curve: %s\n",
                fit.value().ToString().c_str());
    std::printf("predicted score at 300k tokens: %.2f\n",
                fit.value().Predict(300'000));
  }
  std::printf(
      "\nexpected shape: Data-Juicer column highest at every budget; all\n"
      "columns increase with tokens (paper Fig. 7).\n");
  return 0;
}
