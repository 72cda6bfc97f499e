// Table 5 reproduction: keeping ratios when re-sampling a CommonCrawl-like
// corpus with the trained quality classifiers under the two keep rules.
//
// Paper Table 5:
//   Original GPT-3:  pareto 1.30%
//   Reproduced GPT-3: label 3.22%, pareto 1.41%
//   Chinese:          label 1.81%
//
// The crawl is overwhelmingly junk, so only a small percentage survives;
// the pareto rule keeps less than the hard label rule because it also
// rejects a random share of mid-score documents.

#include "bench_util.h"
#include "common/random.h"
#include "quality/quality_classifier.h"
#include "workload/generator.h"

namespace {

using dj::bench::FmtPct;

std::vector<std::string> Texts(dj::workload::Style style, size_t docs,
                               uint64_t seed,
                               const dj::workload::CorpusOptions* base =
                                   nullptr) {
  dj::workload::CorpusOptions options =
      base != nullptr ? *base : dj::workload::CorpusOptions{};
  options.style = style;
  options.num_docs = docs;
  options.seed = seed;
  dj::data::Dataset ds = dj::workload::CorpusGenerator(options).Generate();
  std::vector<std::string> out;
  for (size_t i = 0; i < ds.NumRows(); ++i) {
    out.emplace_back(ds.GetTextAt(i));
  }
  return out;
}

double KeepingRatio(const dj::quality::QualityClassifier& classifier,
                    const std::vector<std::string>& crawl,
                    dj::quality::KeepMethod method, uint64_t seed) {
  dj::Rng rng(seed);
  size_t kept = 0;
  for (const std::string& doc : crawl) {
    if (classifier.Keep(classifier.Score(doc), method, &rng)) ++kept;
  }
  return static_cast<double>(kept) / static_cast<double>(crawl.size());
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Table 5: keeping ratio on a CommonCrawl-like corpus",
      "Tab. 5 — GPT-3 keeps 3.22% @label / 1.41% @pareto "
      "(original GPT-3: 1.30% @pareto); Chinese keeps 1.81% @label");

  // Train the GPT-3-style classifier on wiki-vs-crawl.
  dj::quality::QualityClassifier gpt3;
  gpt3.Train(Texts(dj::workload::Style::kWiki, 300, 1),
             Texts(dj::workload::Style::kCrawl, 300, 2));

  // Train the Chinese classifier on zh-clean vs zh-crawl.
  dj::quality::QualityClassifier zh;
  {
    std::vector<std::string> zh_neg =
        Texts(dj::workload::Style::kChinese, 300, 3);
    dj::Rng rng(4);
    for (std::string& doc : zh_neg) {
      doc += '\n';
      doc += dj::workload::CorpusGenerator::SpamLine(&rng);
      doc += '\n';
      doc += dj::workload::CorpusGenerator::BoilerplateParagraph();
    }
    zh.Train(Texts(dj::workload::Style::kChinese, 300, 5), zh_neg);
  }

  // The crawl to resample: junk-dominated, a small clean slice (like real
  // CommonCrawl, where only ~1-3% survives GPT-3-style filtering).
  dj::workload::CorpusOptions crawl_options;
  crawl_options.spam_rate = 0.5;
  crawl_options.boilerplate_rate = 0.6;
  crawl_options.noise_rate = 0.3;
  std::vector<std::string> crawl =
      Texts(dj::workload::Style::kCrawl, 4700, 6, &crawl_options);
  {
    // ~3% genuinely clean pages hidden in the crawl.
    std::vector<std::string> clean =
        Texts(dj::workload::Style::kWiki, 150, 7);
    crawl.insert(crawl.end(), clean.begin(), clean.end());
  }

  dj::bench::Table table({"classifier", "keep@label", "keep@pareto"});
  table.Row({"GPT-3 (en)",
             FmtPct(KeepingRatio(gpt3, crawl, dj::quality::KeepMethod::kLabel,
                                 10),
                    2),
             FmtPct(KeepingRatio(gpt3, crawl,
                                 dj::quality::KeepMethod::kPareto, 11),
                    2)});
  // zh-crawl to resample: mostly junk-polluted zh pages with a small clean
  // slice (the paper's "samples in Chinese from CommonCrawl").
  std::vector<std::string> zh_crawl;
  {
    std::vector<std::string> noisy =
        Texts(dj::workload::Style::kChinese, 970, 8);
    dj::Rng rng(9);
    for (std::string& doc : noisy) {
      doc += '\n';
      doc += dj::workload::CorpusGenerator::SpamLine(&rng);
      doc += '\n';
      doc += dj::workload::CorpusGenerator::BoilerplateParagraph();
    }
    zh_crawl = std::move(noisy);
    std::vector<std::string> clean =
        Texts(dj::workload::Style::kChinese, 30, 10);
    zh_crawl.insert(zh_crawl.end(), clean.begin(), clean.end());
  }
  table.Row({"Chinese (zh-crawl)",
             FmtPct(KeepingRatio(zh, zh_crawl,
                                 dj::quality::KeepMethod::kLabel, 12),
                    2),
             "-"});
  table.Print();
  std::printf(
      "\nexpected shape: both classifiers keep a low single-digit\n"
      "percentage of their crawl, with pareto < label for GPT-3 (the\n"
      "stochastic rule also drops mid-score docs); paper: 3.22%% / 1.41%%\n"
      "for GPT-3 and 1.81%% for Chinese.\n");
  return 0;
}
