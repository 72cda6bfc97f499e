// dj_analyze: data-probe CLI (the Analyzer/Visualizer of Sec. 5.2). Loads a
// dataset, computes the 13-dimension summary, and prints histograms, box
// plots, and the verb-noun diversity breakdown; optionally exports a CSV.
//
// Usage:
//   dj_analyze --input data.jsonl [--text-key text] [--csv out.csv]
//              [--json out.json] [--bins N] [--np N]
//
// --bins takes 1..1000 (default 10); any other value exits 2.

#include <cstdio>
#include <string>

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/io.h"
#include "json/writer.h"
#include "ops/formatters/formatters.h"

namespace {

/// Largest histogram bin count --bins accepts.
constexpr int64_t kMaxBins = 1000;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input data.jsonl [--text-key KEY] "
               "[--csv out.csv] [--json out.json] [--bins N] [--np N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, csv_path, json_path;
  dj::analysis::Analyzer::Options options;
  int64_t np = 1;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--input") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      input = v;
    } else if (flag == "--text-key") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.text_key = v;
    } else if (flag == "--csv") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      csv_path = v;
    } else if (flag == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      json_path = v;
    } else if (flag == "--bins") {
      const char* v = next();
      int64_t bins = 0;
      if (v == nullptr || !dj::ParseInt64(v, &bins) || bins < 1 ||
          bins > kMaxBins) {
        std::fprintf(stderr, "--bins takes an integer in [1, %lld]\n",
                     static_cast<long long>(kMaxBins));
        return Usage(argv[0]);
      }
      options.histogram_bins = static_cast<size_t>(bins);
    } else if (flag == "--np") {
      const char* v = next();
      if (v == nullptr || !dj::ParseInt64(v, &np) || np < 1 ||
          np > dj::kMaxPoolThreads) {
        std::fprintf(stderr, "--np takes an integer in [1, %lld]\n",
                     static_cast<long long>(dj::kMaxPoolThreads));
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (input.empty()) return Usage(argv[0]);

  // One pool of --np workers for the load and the analysis.
  dj::ThreadPool pool(static_cast<size_t>(np));
  auto dataset = dj::ops::LoadDataset(input, &pool);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load error: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  dj::analysis::Analyzer analyzer(options);
  auto probe = analyzer.Analyze(&dataset.value(), &pool);
  if (!probe.ok()) {
    std::fprintf(stderr, "analyze error: %s\n",
                 probe.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", probe.value().ToString().c_str());
  if (!csv_path.empty()) {
    if (auto s = dj::data::WriteFile(csv_path, probe.value().SummaryCsv());
        !s.ok()) {
      std::fprintf(stderr, "csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nsummary CSV written to %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    std::string out = dj::json::Write(probe.value().ToJson(),
                                      {.pretty = true});
    if (auto s = dj::data::WriteFile(json_path, out); !s.ok()) {
      std::fprintf(stderr, "json error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("probe JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
