// Ablation: deduplication method comparison (paper Table 1: "hash-based and
// vector-based deduplication methods"). A corpus with ground-truth exact
// and near duplicates measures each method's recall on both classes, its
// false-removal rate on unique documents, and its runtime.

#include <unordered_set>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "json/parser.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;
using dj::bench::FmtPct;

struct GroundTruth {
  dj::data::Dataset corpus;
  size_t num_unique = 0;
  size_t num_exact_dups = 0;
  size_t num_near_dups = 0;
};

/// Builds: U unique docs, then E exact copies and N lightly-perturbed
/// copies of random earlier uniques. meta.kind tags each row.
GroundTruth BuildCorpus(size_t unique, size_t exact, size_t near) {
  GroundTruth gt;
  dj::Rng rng(71);
  dj::workload::CorpusOptions options;
  options.style = dj::workload::Style::kWeb;
  options.num_docs = unique;
  options.mean_words = 200;
  options.seed = 72;
  dj::data::Dataset uniques =
      dj::workload::CorpusGenerator(options).Generate();
  std::vector<std::string> texts;
  for (size_t i = 0; i < uniques.NumRows(); ++i) {
    texts.emplace_back(uniques.GetTextAt(i));
  }
  auto add = [&](std::string text, const char* kind) {
    dj::data::Sample s = dj::data::Sample::FromText(std::move(text));
    s.Set("meta.kind", dj::json::Value(kind));
    gt.corpus.AppendSample(s);
  };
  for (const std::string& t : texts) add(t, "unique");
  gt.num_unique = texts.size();
  for (size_t i = 0; i < exact; ++i) {
    add(texts[rng.NextBelow(texts.size())], "exact_dup");
  }
  gt.num_exact_dups = exact;
  for (size_t i = 0; i < near; ++i) {
    std::string t = texts[rng.NextBelow(texts.size())];
    // Perturb lightly: append one sentence (~3-5% of the doc).
    t += ' ';
    t += dj::workload::CorpusGenerator::CleanSentence(&rng);
    add(std::move(t), "near_dup");
  }
  gt.num_near_dups = near;
  return gt;
}

struct MethodResult {
  double exact_recall = 0;
  double near_recall = 0;
  double false_removal = 0;
  double seconds = 0;
  size_t rows_out = 0;
};

MethodResult Evaluate(const GroundTruth& gt, const char* method,
                      const char* params_json) {
  auto parsed = dj::json::Parse(params_json);
  auto op = dj::ops::OpRegistry::Global().Create(method, parsed.value());
  auto* dedup = static_cast<const dj::ops::Deduplicator*>(op.value().get());
  dj::data::Dataset corpus = gt.corpus;
  dj::Stopwatch watch;
  auto result = dedup->Deduplicate(std::move(corpus), nullptr, nullptr);
  MethodResult out;
  out.seconds = watch.ElapsedSeconds();
  if (!result.ok()) return out;
  out.rows_out = result.value().NumRows();
  size_t unique_kept = 0, exact_kept = 0, near_kept = 0;
  for (size_t i = 0; i < result.value().NumRows(); ++i) {
    std::string_view kind = result.value().GetTextAt(i, "meta.kind");
    if (kind == "unique") ++unique_kept;
    if (kind == "exact_dup") ++exact_kept;
    if (kind == "near_dup") ++near_kept;
  }
  // A "kept duplicate" might legitimately survive as its group's first
  // occurrence; but duplicates were appended after all uniques, so every
  // duplicate row has an earlier original and should be removed.
  out.exact_recall =
      1.0 - static_cast<double>(exact_kept) / gt.num_exact_dups;
  out.near_recall = 1.0 - static_cast<double>(near_kept) / gt.num_near_dups;
  out.false_removal =
      1.0 - static_cast<double>(unique_kept) / gt.num_unique;
  return out;
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Ablation: deduplication methods (hash vs vector based)",
      "Table 1 / Sec. 4.2 — exact hashing catches copies only; MinHash/"
      "SimHash/ngram-overlap trade runtime for near-duplicate recall");

  GroundTruth gt = BuildCorpus(400, 80, 80);
  std::printf("corpus: %zu unique + %zu exact dups + %zu near dups\n",
              gt.num_unique, gt.num_exact_dups, gt.num_near_dups);

  dj::bench::Table table({"method", "exact_recall", "near_recall",
                          "false_removals", "time_s"});
  struct Spec {
    const char* name;
    const char* method;
    const char* params;
  };
  constexpr Spec kSpecs[] = {
      {"exact hash", "document_exact_deduplicator", "{}"},
      {"simhash", "document_simhash_deduplicator",
       R"({"hamming_threshold": 6})"},
      {"minhash-lsh", "document_minhash_deduplicator",
       R"({"jaccard_threshold": 0.8})"},
      {"ngram overlap", "ngram_overlap_deduplicator",
       R"({"jaccard_threshold": 0.8})"},
  };
  for (const Spec& spec : kSpecs) {
    MethodResult r = Evaluate(gt, spec.method, spec.params);
    table.Row({spec.name, FmtPct(r.exact_recall), FmtPct(r.near_recall),
               FmtPct(r.false_removal), Fmt(r.seconds, 3)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: every method removes 100%% of exact copies; only\n"
      "the near-duplicate-aware methods (simhash/minhash/ngram-overlap)\n"
      "catch perturbed copies, at higher runtime; false removals stay\n"
      "near zero.\n");
  return 0;
}
