// Tables 4–6 reproduction: train the three quality classifiers (GPT-3-style
// English, Chinese, Code) on synthetic positive/negative corpora with a 4:1
// train/eval split and report precision / recall / F1.
//
// Paper Table 4:
//   GPT-3    P 96.82%  R 98.14%  F1 97.47%
//   Chinese  P 98.00%  R 99.30%  F1 98.64%
//   Code     P 71.23%  R 54.21%  F1 61.56%   (the hard one)

#include "bench_util.h"
#include "common/random.h"
#include "quality/quality_classifier.h"
#include "workload/generator.h"

namespace {

using dj::bench::FmtPct;

struct LabeledCorpus {
  std::vector<std::string> train_texts;
  std::vector<int> train_labels;
  std::vector<std::string> eval_texts;
  std::vector<int> eval_labels;
};

void SplitInto(const std::vector<std::string>& docs, int label,
               LabeledCorpus* out) {
  // 4:1 train/eval split (paper Appendix B.1).
  for (size_t i = 0; i < docs.size(); ++i) {
    if (i % 5 == 4) {
      out->eval_texts.push_back(docs[i]);
      out->eval_labels.push_back(label);
    } else {
      out->train_texts.push_back(docs[i]);
      out->train_labels.push_back(label);
    }
  }
}

std::vector<std::string> CorpusTexts(dj::workload::Style style, size_t docs,
                                     uint64_t seed) {
  dj::workload::CorpusOptions options;
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

dj::quality::ClassifierMetrics TrainAndEvaluate(const LabeledCorpus& corpus) {
  dj::quality::QualityClassifier classifier;
  std::vector<std::string> positives, negatives;
  for (size_t i = 0; i < corpus.train_texts.size(); ++i) {
    if (corpus.train_labels[i] == 1) {
      positives.push_back(corpus.train_texts[i]);
    } else {
      negatives.push_back(corpus.train_texts[i]);
    }
  }
  classifier.Train(positives, negatives);
  return classifier.Evaluate(corpus.eval_texts, corpus.eval_labels);
}

}  // namespace

int main() {
  dj::bench::Banner(
      "Table 4: quality classifier precision / recall / F1",
      "Tab. 4/6 — GPT-3 F1 97.5%, Chinese F1 98.6%, Code F1 61.6% "
      "(code is the hard case)");

  // GPT-3 classifier: wiki/books-like positives vs crawl negatives
  // (paper: Wikipedia-en & books & OpenWebText2 vs CommonCrawl).
  LabeledCorpus en;
  SplitInto(CorpusTexts(dj::workload::Style::kWiki, 250, 1), 1, &en);
  SplitInto(CorpusTexts(dj::workload::Style::kBooks, 150, 2), 1, &en);
  SplitInto(CorpusTexts(dj::workload::Style::kCrawl, 400, 3), 0, &en);
  dj::quality::ClassifierMetrics en_metrics = TrainAndEvaluate(en);

  // Chinese classifier: clean zh prose vs zh-crawl (clean zh + spam mix).
  LabeledCorpus zh;
  SplitInto(CorpusTexts(dj::workload::Style::kChinese, 300, 4), 1, &zh);
  {
    // zh-crawl negatives: Chinese text polluted with crawl junk.
    std::vector<std::string> clean =
        CorpusTexts(dj::workload::Style::kChinese, 300, 5);
    dj::Rng rng(6);
    for (std::string& doc : clean) {
      doc += '\n';
      doc += dj::workload::CorpusGenerator::SpamLine(&rng);
      if (rng.Bernoulli(0.7)) {
        doc += '\n';
        doc += dj::workload::CorpusGenerator::BoilerplateParagraph();
      }
    }
    SplitInto(clean, 0, &zh);
  }
  dj::quality::ClassifierMetrics zh_metrics = TrainAndEvaluate(zh);

  // Code classifier: starred-style code vs random code. The paper found
  // this split weak (F1 61.6%) — high-star code is not lexically very
  // different from the rest; our generator mirrors that overlap.
  LabeledCorpus code;
  {
    std::vector<std::string> starred, random_code;
    dj::Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      // High-quality and low-quality code share most of their identifier
      // vocabulary, and BOTH labels are noisy: stars correlate only weakly
      // with code quality (starred repos contain mediocre files; random
      // TheStack samples contain excellent ones). That label noise is what
      // capped the paper's code-classifier F1 at 61.6%.
      starred.push_back(dj::workload::SyntheticCodeDocument(
          &rng, 150, rng.Bernoulli(0.65)));
      random_code.push_back(dj::workload::SyntheticCodeDocument(
          &rng, 150, rng.Bernoulli(0.45)));
    }
    SplitInto(starred, 1, &code);
    SplitInto(random_code, 0, &code);
  }
  dj::quality::ClassifierMetrics code_metrics = TrainAndEvaluate(code);

  dj::bench::Table table(
      {"classifier", "precision", "recall", "F1", "#eval"});
  auto row = [&](const char* name,
                 const dj::quality::ClassifierMetrics& m) {
    table.Row({name, FmtPct(m.precision, 2), FmtPct(m.recall, 2),
               FmtPct(m.f1, 2), std::to_string(m.num_eval)});
  };
  row("GPT-3 (en)", en_metrics);
  row("Chinese", zh_metrics);
  row("Code", code_metrics);
  table.Print();
  std::printf(
      "\nexpected shape: GPT-3 and Chinese classifiers in the mid-90s; the\n"
      "Code classifier clearly weaker (paper: 61.6%% F1) because the\n"
      "positive/negative split of code is label-noisy.\n");
  return 0;
}
