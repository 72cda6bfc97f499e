#ifndef DJ_OPS_FORMATTERS_FORMATTERS_H_
#define DJ_OPS_FORMATTERS_FORMATTERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::ops {

/// jsonl_formatter: one strict-JSON object per line.
class JsonlFormatter : public Formatter {
 public:
  static const OpDeclaration& Declaration();
  explicit JsonlFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) const override;
};

/// json_formatter: a JSON array of objects (or one object).
class JsonFormatter : public Formatter {
 public:
  static const OpDeclaration& Declaration();
  explicit JsonFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) const override;
};

/// txt_formatter: plain text. With `per_line=true` every non-empty line is a
/// sample; otherwise the whole content is one sample.
class TxtFormatter : public Formatter {
 public:
  static const OpDeclaration& Declaration();
  explicit TxtFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) const override;

 private:
  bool per_line_;
};

/// csv_formatter / tsv_formatter: header row defines columns; a column named
/// "text" (or the first column otherwise) becomes the text field, the rest
/// go under "meta". Quoted fields with embedded separators are supported.
class CsvFormatter : public Formatter {
 public:
  static const OpDeclaration& Declaration();
  explicit CsvFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) const override;

 protected:
  CsvFormatter(const OpDeclaration& declaration, const json::Value& config,
               char sep);

 private:
  char sep_;
};

class TsvFormatter : public CsvFormatter {
 public:
  static const OpDeclaration& Declaration();
  explicit TsvFormatter(const json::Value& config);
};

/// code_formatter: a source file becomes one sample with meta.language
/// derived from the file suffix and meta.suffix recorded.
class CodeFormatter : public Formatter {
 public:
  static const OpDeclaration& Declaration();
  explicit CodeFormatter(const json::Value& config);
  Result<data::Dataset> LoadFromString(std::string_view content,
                                       std::string_view origin) const override;
};

/// Dispatches on the path suffix (.jsonl/.json/.txt/.md/.csv/.tsv/code
/// suffixes, plus the binary .djds / .djds.djlz containers) and loads with
/// the matching formatter — the unified loading entry point of paper
/// Sec. 4.1. JSONL and binary containers parse/decode on `pool` when given.
Result<data::Dataset> LoadDataset(const std::string& path,
                                  ThreadPool* pool = nullptr);

}  // namespace dj::ops

#endif  // DJ_OPS_FORMATTERS_FORMATTERS_H_
