#ifndef DJ_CORE_RECIPE_H_
#define DJ_CORE_RECIPE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/value.h"

namespace dj::core {

/// One entry of a recipe's "process" list: an OP name plus its parameters.
struct OpSpec {
  std::string name;
  json::Value params{json::Object()};
};

/// A data recipe — the all-in-one configuration of a processing run
/// (paper Sec. 6.1). Recipes load from YAML or JSON; unknown top-level keys
/// are preserved in `extras` so configs round-trip.
///
/// YAML shape (mirroring upstream Data-Juicer):
///   project_name: my-recipe
///   dataset_path: in.jsonl
///   export_path: out.jsonl
///   np: 4
///   use_cache: true
///   op_fusion: true
///   process:
///     - whitespace_normalization_mapper:
///     - language_id_score_filter:
///         lang: en
///         min_score: 0.8
struct Recipe {
  std::string project_name;
  std::string dataset_path;
  std::string export_path;
  int num_workers = 1;

  bool use_cache = false;
  std::string cache_dir;
  bool cache_compression = false;

  bool use_checkpoint = false;
  std::string checkpoint_dir;

  /// Run each run of two or more consecutive filters as one stage.
  bool op_fusion = false;

  bool enable_trace = false;
  int64_t trace_limit = 10;

  std::vector<OpSpec> process;
  json::Value extras{json::Object()};

  /// Parses from a JSON value (as produced by the YAML or JSON parser).
  static Result<Recipe> FromJson(const json::Value& root);

  /// Parses from text in YAML (default) or JSON (text starting with '{').
  static Result<Recipe> FromString(std::string_view text);

  /// Loads from a .yaml/.yml/.json file.
  static Result<Recipe> FromFile(const std::string& path);

  /// Serializes back to a JSON value (stable ordering).
  json::Value ToJson() const;

  /// The recognized top-level recipe keys; anything else lands in `extras`
  /// (and is flagged by the recipe linter as a likely typo).
  static const std::vector<std::string_view>& KnownKeys();
};

}  // namespace dj::core

#endif  // DJ_CORE_RECIPE_H_
