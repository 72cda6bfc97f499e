// Analyzer demo: compute the 13-dimension data probe on a corpus and print
// the histograms / box plots the paper's Visualizer renders graphically
// (Sec. 5.2, Fig. 4.(b)/(c)), plus the verb-noun diversity of Fig. 5.
//
// Run: ./analyzer_probe [num_docs]

#include <cstdio>
#include <cstdlib>

#include "analysis/analyzer.h"
#include "common/thread_pool.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  size_t num_docs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;

  dj::workload::CorpusOptions options;
  options.style = dj::workload::Style::kWeb;
  options.num_docs = num_docs;
  options.spam_rate = 0.2;
  options.short_doc_rate = 0.1;
  options.seed = 5;
  dj::data::Dataset ds = dj::workload::CorpusGenerator(options).Generate();

  dj::analysis::Analyzer::Options analyzer_options;
  analyzer_options.histogram_bins = 8;
  dj::analysis::Analyzer analyzer(analyzer_options);
  dj::ThreadPool pool(2);
  auto probe = analyzer.Analyze(&ds, &pool);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", probe.value().ToString().c_str());
  std::printf("---- CSV export of the summary ----\n%s",
              probe.value().SummaryCsv().c_str());
  return 0;
}
