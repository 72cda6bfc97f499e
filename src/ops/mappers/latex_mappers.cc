#include "ops/mappers/latex_mappers.h"

#include <cctype>
#include <unordered_map>

#include "common/string_util.h"

namespace dj::ops {
namespace {

/// Parses `\newcommand{\name}{body}` or `\def\name{body}` with no arguments;
/// returns true and advances `*pos` past the definition on success.
bool ParseMacroDef(std::string_view s, size_t* pos, std::string* name,
                   std::string* body) {
  size_t p = *pos;
  bool is_def = false;
  if (s.substr(p, 11) == "\\newcommand") {
    p += 11;
  } else if (s.substr(p, 4) == "\\def") {
    p += 4;
    is_def = true;
  } else {
    return false;
  }
  auto skip_ws = [&] {
    while (p < s.size() && (s[p] == ' ' || s[p] == '\t')) ++p;
  };
  skip_ws();
  // Macro name: {\name} for newcommand, \name for def.
  if (!is_def) {
    if (p >= s.size() || s[p] != '{') return false;
    ++p;
  }
  if (p >= s.size() || s[p] != '\\') return false;
  size_t name_start = p;
  ++p;
  while (p < s.size() && std::isalpha(static_cast<unsigned char>(s[p]))) ++p;
  *name = std::string(s.substr(name_start, p - name_start));
  if (name->size() < 2) return false;
  if (!is_def) {
    skip_ws();
    if (p >= s.size() || s[p] != '}') return false;
    ++p;
  }
  skip_ws();
  // Argumented macros ("[1]") are skipped — expansion would need substitution.
  if (p < s.size() && s[p] == '[') return false;
  if (p >= s.size() || s[p] != '{') return false;
  // Body: balanced braces.
  int depth = 0;
  size_t body_start = p + 1;
  while (p < s.size()) {
    if (s[p] == '{') {
      ++depth;
    } else if (s[p] == '}') {
      --depth;
      if (depth == 0) break;
    }
    ++p;
  }
  if (depth != 0) return false;
  *body = std::string(s.substr(body_start, p - body_start));
  *pos = p + 1;
  return true;
}

bool IsTableLine(std::string_view line, int min_cols) {
  std::string_view t = StripAsciiWhitespace(line);
  if (t.empty()) return false;
  int pipes = 0, amps = 0;
  for (char c : t) {
    if (c == '|') ++pipes;
    if (c == '&') ++amps;
  }
  if (pipes >= min_cols || amps >= min_cols - 1) return true;
  if (EndsWith(t, "\\\\") && amps >= 1) return true;
  // Separator rows of markdown tables: only -, |, :, +, = and spaces.
  size_t structural = 0;
  for (char c : t) {
    if (c == '-' || c == '|' || c == ':' || c == '+' || c == '=' || c == ' ') {
      ++structural;
    }
  }
  return structural == t.size() && t.size() >= 4;
}

}  // namespace

// --------------------------------------------------- ExpandMacroMapper --

const OpDeclaration& ExpandMacroMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("expand_macro_mapper", OpKind::kMapper));
  return d;
}

ExpandMacroMapper::ExpandMacroMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> ExpandMacroMapper::TransformText(
    std::string_view input) const {
  // Pass 1: collect simple macro definitions.
  std::unordered_map<std::string, std::string> macros;
  size_t i = 0;
  while ((i = input.find('\\', i)) != std::string_view::npos) {
    std::string name, body;
    size_t p = i;
    if (ParseMacroDef(input, &p, &name, &body)) {
      macros.emplace(std::move(name), std::move(body));
      i = p;
    } else {
      ++i;
    }
  }
  if (macros.empty()) return std::string(input);
  // Pass 2: drop definitions and substitute uses (longest-name match first
  // is ensured by requiring a non-letter after the name).
  std::string out;
  out.reserve(input.size());
  i = 0;
  while (i < input.size()) {
    if (input[i] == '\\') {
      std::string name, body;
      size_t p = i;
      if (ParseMacroDef(input, &p, &name, &body)) {
        i = p;
        // Also swallow one trailing newline of the definition line.
        if (i < input.size() && input[i] == '\n') ++i;
        continue;
      }
      // Macro use?
      size_t q = i + 1;
      while (q < input.size() &&
             std::isalpha(static_cast<unsigned char>(input[q]))) {
        ++q;
      }
      std::string candidate(input.substr(i, q - i));
      auto it = macros.find(candidate);
      if (it != macros.end()) {
        out.append(it->second);
        i = q;
        // \name{} form: swallow empty braces.
        if (i + 1 < input.size() && input[i] == '{' && input[i + 1] == '}') {
          i += 2;
        }
        continue;
      }
    }
    out.push_back(input[i]);
    ++i;
  }
  return out;
}

// -------------------------------------------- RemoveBibliographyMapper --

const OpDeclaration& RemoveBibliographyMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_bibliography_mapper", OpKind::kMapper));
  return d;
}

RemoveBibliographyMapper::RemoveBibliographyMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> RemoveBibliographyMapper::TransformText(
    std::string_view input) const {
  static constexpr std::string_view kMarkers[] = {
      "\\begin{thebibliography}", "\\bibliography{", "\\printbibliography"};
  size_t cut = std::string_view::npos;
  for (std::string_view marker : kMarkers) {
    size_t pos = input.find(marker);
    if (pos != std::string_view::npos && pos < cut) cut = pos;
  }
  // Plain "References" heading on its own line in the second half: the
  // last one past the midpoint, found by forward searches from there.
  for (std::string_view heading :
       {"\nReferences\n", "\nREFERENCES\n", "\n# References\n"}) {
    size_t last = std::string_view::npos;
    for (size_t pos = input.find(heading, input.size() / 2 + 1);
         pos != std::string_view::npos; pos = input.find(heading, pos + 1)) {
      last = pos;
    }
    if (last < cut) cut = last;
  }
  if (cut == std::string_view::npos) return std::string(input);
  return std::string(input.substr(0, cut));
}

// ------------------------------------------------ RemoveCommentsMapper --

const OpDeclaration& RemoveCommentsMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_comments_mapper", OpKind::kMapper));
  return d;
}

RemoveCommentsMapper::RemoveCommentsMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> RemoveCommentsMapper::TransformText(
    std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  bool at_line_start = true;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (c == '\\' && i + 1 < input.size() && input[i + 1] == '%') {
      out.append("\\%");
      i += 2;
      at_line_start = false;
      continue;
    }
    if (c == '%') {
      // Drop to end of line; full-line comments also drop their newline.
      size_t nl = input.find('\n', i);
      if (nl == std::string_view::npos) {
        i = input.size();
      } else {
        i = at_line_start ? nl + 1 : nl;
      }
      continue;
    }
    out.push_back(c);
    at_line_start = (c == '\n');
    ++i;
  }
  return out;
}

// -------------------------------------------------- RemoveHeaderMapper --

const OpDeclaration& RemoveHeaderMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_header_mapper", OpKind::kMapper));
  return d;
}

RemoveHeaderMapper::RemoveHeaderMapper(const json::Value& config)
    : Mapper(Declaration(), config) {}

Result<std::string> RemoveHeaderMapper::TransformText(
    std::string_view input) const {
  static constexpr std::string_view kBeginDoc = "\\begin{document}";
  size_t pos = input.find(kBeginDoc);
  if (pos != std::string_view::npos) {
    std::string_view rest = input.substr(pos + kBeginDoc.size());
    while (!rest.empty() && (rest.front() == '\n' || rest.front() == '\r')) {
      rest.remove_prefix(1);
    }
    return std::string(rest);
  }
  // No \begin{document}: strip leading preamble-looking lines.
  static constexpr std::string_view kPreamble[] = {
      "\\documentclass", "\\usepackage", "\\title",  "\\author",
      "\\maketitle",     "\\date",       "\\setlength", "\\pagestyle"};
  std::string out;
  bool in_header = true;
  for (const std::string& line : SplitLines(input)) {
    if (in_header) {
      std::string_view t = StripAsciiWhitespace(line);
      bool is_preamble = t.empty();
      for (std::string_view p : kPreamble) {
        if (StartsWith(t, p)) {
          is_preamble = true;
          break;
        }
      }
      if (is_preamble) continue;
      in_header = false;
    }
    out += line;
    out.push_back('\n');
  }
  if (!out.empty() && out.back() == '\n' && !input.empty() &&
      input.back() != '\n') {
    out.pop_back();
  }
  return out;
}

// ----------------------------------------------- RemoveTableTextMapper --

const OpDeclaration& RemoveTableTextMapper::Declaration() {
  static const OpDeclaration d =
      Declare(OpSchema("remove_table_text_mapper", OpKind::kMapper)
                  .Int("min_col_count", 2, 1, kParamInf,
                       "minimum columns for a line to read as a table row"));
  return d;
}

RemoveTableTextMapper::RemoveTableTextMapper(const json::Value& config)
    : Mapper(Declaration(), config),
      min_col_count_(Param<int64_t>("min_col_count")) {}

Result<std::string> RemoveTableTextMapper::TransformText(
    std::string_view input) const {
  std::string out;
  out.reserve(input.size());
  bool in_tabular = false;
  for (const std::string& line : SplitLines(input)) {
    std::string_view t = StripAsciiWhitespace(line);
    if (Contains(t, "\\begin{tabular}") || Contains(t, "\\begin{table}")) {
      in_tabular = true;
      continue;
    }
    if (in_tabular) {
      if (Contains(t, "\\end{tabular}") || Contains(t, "\\end{table}")) {
        in_tabular = false;
      }
      continue;
    }
    if (IsTableLine(line, static_cast<int>(min_col_count_))) continue;
    out += line;
    out.push_back('\n');
  }
  if (!out.empty() && out.back() == '\n' && !input.empty() &&
      input.back() != '\n') {
    out.pop_back();
  }
  return out;
}

}  // namespace dj::ops
