#include "ops/formatters/formatters.h"

#include <unordered_map>

#include "common/string_util.h"
#include "data/io.h"
#include "json/parser.h"

namespace dj::ops {
namespace {

std::string SuffixOf(std::string_view path) {
  size_t slash = path.find_last_of('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot == std::string_view::npos) return "";
  return AsciiToLower(base.substr(dot));
}

std::string LanguageFromSuffix(std::string_view suffix) {
  static const std::unordered_map<std::string_view, std::string_view> kMap = {
      {".py", "python"}, {".cpp", "cpp"},   {".cc", "cpp"},
      {".h", "cpp"},     {".hpp", "cpp"},   {".c", "c"},
      {".js", "javascript"}, {".ts", "typescript"}, {".java", "java"},
      {".go", "go"},     {".rs", "rust"},   {".rb", "ruby"},
      {".sh", "shell"},  {".sql", "sql"},   {".cs", "csharp"},
      {".php", "php"},   {".scala", "scala"}, {".kt", "kotlin"}};
  auto it = kMap.find(suffix);
  return it == kMap.end() ? "unknown" : std::string(it->second);
}

/// Parses one CSV record starting at *pos; supports RFC-4180 quoting.
std::vector<std::string> ParseCsvRecord(std::string_view content, size_t* pos,
                                        char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  while (*pos < content.size()) {
    char c = content[*pos];
    if (in_quotes) {
      if (c == '"') {
        if (*pos + 1 < content.size() && content[*pos + 1] == '"') {
          current.push_back('"');
          ++*pos;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\n') {
      ++*pos;
      break;
    } else if (c != '\r') {
      current.push_back(c);
    }
    ++*pos;
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Formatters materialize rows from external bytes: they populate the text
/// and meta columns and read nothing from the dataset.
OpDeclaration Declare(OpSchema schema) {
  return {std::move(schema), OpEffects().Writes("@text_key").Writes("meta")};
}

}  // namespace

// ------------------------------------------------------- JsonlFormatter --

const OpDeclaration& JsonlFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("jsonl_formatter", OpKind::kFormatter));
  return d;
}

JsonlFormatter::JsonlFormatter(const json::Value& config)
    : Formatter(Declaration(), config) {}

Result<data::Dataset> JsonlFormatter::LoadFromString(
    std::string_view content, std::string_view origin) const {
  auto r = data::ParseJsonl(content);
  if (!r.ok()) {
    return Status::Corruption(std::string(origin) + ": " +
                              r.status().message());
  }
  return r;
}

// -------------------------------------------------------- JsonFormatter --

const OpDeclaration& JsonFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("json_formatter", OpKind::kFormatter));
  return d;
}

JsonFormatter::JsonFormatter(const json::Value& config)
    : Formatter(Declaration(), config) {}

Result<data::Dataset> JsonFormatter::LoadFromString(
    std::string_view content, std::string_view origin) const {
  auto r = json::ParseStrict(content);
  if (!r.ok()) {
    return Status::Corruption(std::string(origin) + ": " +
                              r.status().message());
  }
  data::Dataset ds;
  json::Value root = std::move(r).value();
  if (root.is_object()) {
    ds.AppendSample(data::Sample(std::move(root.as_object())));
    return ds;
  }
  if (!root.is_array()) {
    return Status::Corruption(std::string(origin) +
                              ": expected JSON array or object");
  }
  for (json::Value& v : root.as_array()) {
    if (!v.is_object()) {
      return Status::Corruption(std::string(origin) +
                                ": array elements must be objects");
    }
    ds.AppendSample(data::Sample(std::move(v.as_object())));
  }
  return ds;
}

// --------------------------------------------------------- TxtFormatter --

const OpDeclaration& TxtFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("txt_formatter", OpKind::kFormatter)
                  .Bool("per_line", false,
                        "each non-empty line becomes its own sample"));
  return d;
}

TxtFormatter::TxtFormatter(const json::Value& config)
    : Formatter(Declaration(), config), per_line_(Param<bool>("per_line")) {}

Result<data::Dataset> TxtFormatter::LoadFromString(
    std::string_view content, std::string_view origin) const {
  data::Dataset ds;
  auto make_sample = [&](std::string text) {
    data::Sample s = data::Sample::FromText(std::move(text));
    s.Set("meta.source", json::Value(std::string(origin)));
    ds.AppendSample(s);
  };
  if (per_line_) {
    for (const std::string& line : SplitLines(content)) {
      if (StripAsciiWhitespace(line).empty()) continue;
      make_sample(line);
    }
  } else {
    make_sample(std::string(content));
  }
  return ds;
}

// --------------------------------------------------------- CsvFormatter --

const OpDeclaration& CsvFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("csv_formatter", OpKind::kFormatter));
  return d;
}

CsvFormatter::CsvFormatter(const json::Value& config)
    : CsvFormatter(Declaration(), config, ',') {}

CsvFormatter::CsvFormatter(const OpDeclaration& declaration,
                           const json::Value& config, char sep)
    : Formatter(declaration, config), sep_(sep) {}

const OpDeclaration& TsvFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("tsv_formatter", OpKind::kFormatter));
  return d;
}

TsvFormatter::TsvFormatter(const json::Value& config)
    : CsvFormatter(Declaration(), config, '\t') {}

Result<data::Dataset> CsvFormatter::LoadFromString(
    std::string_view content, std::string_view origin) const {
  size_t pos = 0;
  if (content.empty()) return data::Dataset();
  std::vector<std::string> header = ParseCsvRecord(content, &pos, sep_);
  if (header.empty()) {
    return Status::Corruption(std::string(origin) + ": empty header row");
  }
  // Which column carries the text?
  size_t text_col = 0;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "text") {
      text_col = i;
      break;
    }
  }
  data::Dataset ds;
  while (pos < content.size()) {
    std::vector<std::string> fields = ParseCsvRecord(content, &pos, sep_);
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != header.size()) {
      return Status::Corruption(std::string(origin) + ": row with " +
                                std::to_string(fields.size()) +
                                " fields, header has " +
                                std::to_string(header.size()));
    }
    data::Sample s;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i == text_col) {
        s.Set(data::kTextField, json::Value(std::move(fields[i])));
      } else {
        // Numeric-looking meta values parse as numbers.
        int64_t iv;
        double dv;
        if (ParseInt64(fields[i], &iv)) {
          s.Set("meta." + header[i], json::Value(iv));
        } else if (ParseDouble(fields[i], &dv)) {
          s.Set("meta." + header[i], json::Value(dv));
        } else {
          s.Set("meta." + header[i], json::Value(std::move(fields[i])));
        }
      }
    }
    ds.AppendSample(s);
  }
  return ds;
}

// -------------------------------------------------------- CodeFormatter --

const OpDeclaration& CodeFormatter::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("code_formatter", OpKind::kFormatter));
  return d;
}

CodeFormatter::CodeFormatter(const json::Value& config)
    : Formatter(Declaration(), config) {}

Result<data::Dataset> CodeFormatter::LoadFromString(
    std::string_view content, std::string_view origin) const {
  std::string suffix = SuffixOf(origin);
  data::Sample s = data::Sample::FromText(std::string(content));
  s.Set("meta.source", json::Value(std::string(origin)));
  s.Set("meta.suffix", json::Value(suffix));
  s.Set("meta.language", json::Value(LanguageFromSuffix(suffix)));
  data::Dataset ds;
  ds.AppendSample(s);
  return ds;
}

// ---------------------------------------------------------- LoadDataset --

Result<data::Dataset> LoadDataset(const std::string& path, ThreadPool* pool) {
  // Binary containers bypass the formatter layer entirely (SuffixOf would
  // see only ".djlz" for the compound suffix).
  if (EndsWith(path, ".djds") || EndsWith(path, ".djds.djlz")) {
    return data::ImportDataset(path, pool);
  }
  std::string suffix = SuffixOf(path);
  json::Value empty_config{json::Object()};
  if (suffix == ".jsonl" || suffix == ".ndjson") {
    return data::ReadJsonl(path, pool);
  }
  if (suffix == ".json") {
    return JsonFormatter(empty_config).LoadFile(path);
  }
  if (suffix == ".txt" || suffix == ".md" || suffix == ".html" ||
      suffix == ".tex" || suffix == "") {
    return TxtFormatter(empty_config).LoadFile(path);
  }
  if (suffix == ".csv") {
    return CsvFormatter(empty_config).LoadFile(path);
  }
  if (suffix == ".tsv") {
    return TsvFormatter(empty_config).LoadFile(path);
  }
  // Everything else is treated as source code.
  return CodeFormatter(empty_config).LoadFile(path);
}

}  // namespace dj::ops
