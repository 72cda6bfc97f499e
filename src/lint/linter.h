#ifndef DJ_LINT_LINTER_H_
#define DJ_LINT_LINTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/recipe.h"
#include "json/value.h"
#include "ops/registry.h"

namespace dj::lint {

/// Diagnostic severity. Errors mean the recipe will misbehave (unknown OP,
/// ignored param, empty keep-range); warnings mean it will run but likely
/// not do what was intended; notes are advisory (dead stat writes, a
/// filter run split in two).
enum class Severity { kError, kWarning, kNote };

const char* SeverityName(Severity severity);

/// One structured finding of the recipe linter.
struct Diagnostic {
  Severity severity = Severity::kNote;
  /// Index into Recipe::process, or -1 for recipe-level findings.
  int op_index = -1;
  /// OP name the finding is about; empty for recipe-level findings.
  std::string op_name;
  std::string message;
  /// Optional actionable fix ("did you mean 'min_score'?").
  std::string hint;

  /// "error: op[3] 'languge_id_score_filter': unknown OP (did you mean ...)"
  std::string ToString() const;
  json::Value ToJson() const;
};

/// Result of linting one recipe.
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  size_t errors() const { return Count(Severity::kError); }
  size_t warnings() const { return Count(Severity::kWarning); }
  size_t notes() const { return Count(Severity::kNote); }
  /// True when the recipe is safe to run (no errors).
  bool ok() const { return errors() == 0; }

  /// Multi-line human-readable listing (one diagnostic per line, most
  /// severe first) plus a summary line.
  std::string ToString() const;
  /// {"errors": N, "warnings": N, "notes": N, "diagnostics": [...]}.
  json::Value ToJson() const;

 private:
  size_t Count(Severity severity) const;
};

/// Static analyzer over data recipes (paper Sec. 6.1 "all-in-one
/// configuration"): checks a parsed Recipe against the OP registry's
/// declared parameter schemas and the OPs' declared effects without
/// touching any data. Diagnoses, among others:
///
///   - unknown OP names, with did-you-mean suggestions;
///   - unknown / typo'd param keys and type or range violations
///     (via each OP's declared OpSchema);
///   - empty keep-ranges (effective min > max);
///   - duplicate identical OPs;
///   - use_cache / use_checkpoint without a directory;
///   - deduplication placed before cleaning mappers;
///   - a fusion note on a non-filter OP that splits a run of filters
///     into two stages;
///   - effect-dataflow findings (reads of never-produced stats fields,
///     stat-key collisions, dead stat writes, unreachable OPs) by
///     propagating the available-field set through the declared OpEffects.
class RecipeLinter {
 public:
  struct Options {
    /// Run the effect-dataflow pass over the declared OpEffects.
    bool effects_checks = true;
  };

  explicit RecipeLinter(const ops::OpRegistry& registry)
      : RecipeLinter(registry, Options()) {}
  RecipeLinter(const ops::OpRegistry& registry, Options options);

  LintReport Lint(const core::Recipe& recipe) const;

  /// Best did-you-mean candidate for `name` among `candidates`, or "" when
  /// nothing is close enough (edit distance must beat max(2, len/4)).
  static std::string ClosestMatch(std::string_view name,
                                  const std::vector<std::string>& candidates);

 private:
  const ops::OpRegistry& registry_;
  Options options_;
};

}  // namespace dj::lint

#endif  // DJ_LINT_LINTER_H_
