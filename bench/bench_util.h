#ifndef DJ_BENCH_BENCH_UTIL_H_
#define DJ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "data/io.h"
#include "json/value.h"
#include "json/writer.h"

namespace dj::bench {

/// Prints a section banner naming the paper artifact being reproduced.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Simple aligned table printer: column widths derived from the header.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.reserve(headers_.size());
    for (const auto& header : headers_) {
      widths_.push_back(header.size() < 8 ? 10 : header.size() + 2);
    }
  }

  void Row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void Print() {
    // Widen columns to fit the widest cell.
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
        if (row[i].size() + 2 > widths_[i]) widths_[i] = row[i].size() + 2;
      }
    }
    PrintAligned();
  }

 private:
  void PrintAligned() const {
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s", static_cast<int>(i < widths_.size() ? widths_[i]
                                                                : 12),
                    cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t width : widths_) total += width;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtPct(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100);
  return buf;
}

/// Runs `ops` over `data` with `executor`: as one Run when `staged`, so each
/// run of two or more filters is one stage, else as one Run per OP, so every
/// filter is a unit of its own. Appends each unit's report to `units` when
/// it is not null.
inline Result<data::Dataset> RunStagedOrPerOp(
    core::Executor& executor, data::Dataset data,
    const std::vector<std::unique_ptr<ops::Op>>& ops, bool staged,
    std::vector<core::OpReport>* units = nullptr) {
  std::vector<std::vector<ops::Op*>> runs;
  for (const auto& op : ops) {
    if (!staged || runs.empty()) runs.emplace_back();
    runs.back().push_back(op.get());
  }
  for (const auto& run : runs) {
    core::RunReport report;
    DJ_ASSIGN_OR_RETURN(data, executor.Run(std::move(data), run, &report));
    if (units != nullptr) {
      units->insert(units->end(), report.op_reports.begin(),
                    report.op_reports.end());
    }
  }
  return data;
}

/// Machine-readable companion to the printed tables: collects scalar
/// metrics and writes `BENCH_<name>.json` so runs can be compared across
/// commits without scraping stdout. Output directory comes from
/// DJ_BENCH_JSON_DIR (default: current directory).
///
/// Schema: {"bench": <name>, "paper_ref": <ref>, "schema_version": 1,
///          "metrics": {<key>: <number>, ...}}
class JsonReport {
 public:
  JsonReport(std::string name, std::string paper_ref)
      : name_(std::move(name)), paper_ref_(std::move(paper_ref)) {}

  void Add(const std::string& key, double value) {
    metrics_.as_object().Set(key, json::Value(value));
  }

  /// Writes the report; prints a one-line confirmation or warning. Benches
  /// are best-effort reporters, so failures never abort the run.
  void Write() const {
    json::Value root{json::Object{}};
    auto& obj = root.as_object();
    obj.Set("bench", json::Value(name_));
    obj.Set("paper_ref", json::Value(paper_ref_));
    obj.Set("schema_version", json::Value(static_cast<int64_t>(1)));
    obj.Set("metrics", metrics_);
    const char* dir = std::getenv("DJ_BENCH_JSON_DIR");
    std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                       "/BENCH_" + name_ + ".json";
    json::WriteOptions options;
    options.pretty = true;
    if (auto s = data::WriteFile(path, json::Write(root, options) + "\n");
        !s.ok()) {
      std::fprintf(stderr, "bench json: %s\n", s.ToString().c_str());
      return;
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::string paper_ref_;
  json::Value metrics_{json::Object{}};
};

}  // namespace dj::bench

#endif  // DJ_BENCH_BENCH_UTIL_H_
