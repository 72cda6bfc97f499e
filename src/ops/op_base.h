#ifndef DJ_OPS_OP_BASE_H_
#define DJ_OPS_OP_BASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "json/value.h"
#include "ops/op_effects.h"
#include "ops/param_spec.h"
#include "ops/sample_context.h"

namespace dj::ops {

/// Everything an OP declares about itself, written once per OP: its schema
/// (registry name, kind, params with defaults and ranges) and its effects.
/// Each OP class returns its own from a static Declaration() built once per
/// process; the registry, the OP's effective config and the linter all read
/// that one object.
///
///   const OpDeclaration& LineCountFilter::Declaration() {
///     static const OpDeclaration d{
///         OpSchema("line_count_filter", OpKind::kFilter)
///             .KeepRange(1, kParamInf, 0, kParamInf, "line count"),
///         OpEffects().Reads("@text_key").ProducesStat("num_lines")};
///     return d;
///   }
struct OpDeclaration {
  OpSchema schema;
  OpEffects effects;
};

/// Writes "stats.<key>" of `row`, keeping the stats object's keys in
/// lexicographic order: exported bytes must not depend on the order the
/// OPs computed the stats in.
/// The "stats" column must already exist (Dataset::EnsureColumn).
Status WriteStatSorted(data::RowRef row, std::string_view key,
                       json::Value value);

/// A recorded duplicate pair, surfaced to the Tracer.
struct DuplicatePair {
  size_t kept_row;
  size_t removed_row;
  double similarity;  ///< 1.0 for exact duplicates.
};

/// Base class of all operators. Concrete OPs are configured from a JSON
/// object (one entry of a recipe's "process" list) and expose their
/// effective configuration back for hashing/caching.
///
/// Common configuration keys understood by every OP:
///   text_key: which dot-path field to process (default "text"); this is the
///             per-OP field targeting of paper Sec. 4.3.
class Op {
 public:
  virtual ~Op() = default;

  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  /// Registry name, e.g. "language_id_score_filter".
  const std::string& name() const { return declaration_->schema.op_name(); }

  virtual OpKind kind() const = 0;

  /// The OP's declaration: schema (name, params, defaults) and effects.
  const OpDeclaration& declaration() const { return *declaration_; }

  /// Effective configuration (declared defaults filled in), serialized into
  /// cache keys. Deterministic.
  const json::Value& config() const { return config_; }

  /// The field this OP processes, e.g. "text" or "text.instruction".
  const std::string& text_key() const { return text_key_; }

 protected:
  /// Starts the effective config from `config` and fills in every declared
  /// param that has a default, coerced to its declared type, in declaration
  /// order. `declaration` must outlive the OP (a function-local static).
  Op(const OpDeclaration& declaration, const json::Value& config);

  /// Effective value of declared param `key`: the recipe's value, else the
  /// declared default. T is bool, int64_t, double or std::string and must
  /// match the declared type; reading a key the schema does not declare
  /// with a default, or as another type, aborts.
  template <typename T>
  T Param(std::string_view key) const {
    if constexpr (std::is_same_v<T, bool>) {
      return DeclaredValue(key, ParamType::kBool).as_bool();
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return DeclaredValue(key, ParamType::kInt).as_int();
    } else if constexpr (std::is_same_v<T, double>) {
      return DeclaredValue(key, ParamType::kDouble).as_double();
    } else {
      static_assert(std::is_same_v<T, std::string>);
      return DeclaredValue(key, ParamType::kString).as_string();
    }
  }
  /// Records a value the OP computed itself into the effective config, for
  /// cache keys. `key` must be declared without a default (a declared
  /// default is filled by the constructor and may not be overwritten);
  /// anything else aborts.
  void SetEffectiveParam(std::string_view key, json::Value value);

 private:
  /// The filled value of `key`, which the schema must declare as `type`
  /// with a default; aborts otherwise.
  const json::Value& DeclaredValue(std::string_view key, ParamType type) const;

  const OpDeclaration* declaration_;
  json::Value config_;
  std::string text_key_;
};

/// Mapper: in-place single-sample text editing (paper Table 1). Subclasses
/// implement TransformText; the base class reads/writes the configured
/// text field.
class Mapper : public Op {
 public:
  OpKind kind() const override { return OpKind::kMapper; }

  /// A mapper's declaration: `schema` plus the effects every mapper has —
  /// it reads and rewrites the configured text field.
  static OpDeclaration Declare(OpSchema schema);

  /// Transforms one text value. `ctx` provides shared representations.
  virtual Result<std::string> TransformText(std::string_view input,
                                            SampleContext* ctx) const = 0;

  /// Applies the transform to the configured field of `row`. Missing or
  /// non-string fields are left untouched (returns OK).
  Status ProcessRow(data::RowRef row, SampleContext* ctx) const;

 protected:
  using Op::Op;
};

/// Filter: decoupled per-sample statistics computation and keep decision
/// (paper Listing 1: compute_stats + process). ComputeStats writes into the
/// "stats" column; KeepRow reads only stats, enabling the Analyzer to reuse
/// them and the executor to run a stage of filters in one pass. The stats
/// keys a filter writes are part of its declared effects.
class Filter : public Op {
 public:
  OpKind kind() const override { return OpKind::kFilter; }

  /// Computes and stores stats for one row. Skips recomputation when the
  /// stats key is already present (e.g. from a previous Analyzer pass).
  virtual Status ComputeStats(data::RowRef row, SampleContext* ctx) const = 0;

  /// Pure predicate over previously computed stats.
  virtual Result<bool> KeepRow(data::RowRef row) const = 0;

 protected:
  using Op::Op;

  /// Helpers shared by subclasses.
  Status WriteStat(data::RowRef row, std::string_view key,
                   json::Value value) const;
  bool HasStat(data::RowRef row, std::string_view key) const;
  double ReadStat(data::RowRef row, std::string_view key, double def) const;
};

/// Deduplicator: dataset-level duplicate removal with a decoupled per-sample
/// hash/fingerprint computation (paper Listing 1: compute_hash + process).
class Deduplicator : public Op {
 public:
  OpKind kind() const override { return OpKind::kDeduplicator; }

  /// Computes this op's fingerprint(s) for one row (stored internally or in
  /// stats, implementation-defined). Called concurrently for distinct rows.
  virtual Status ComputeHash(data::RowRef row) = 0;

  /// Removes duplicates from `dataset`, returning the deduplicated dataset.
  /// `pairs` (optional) receives kept/removed row pairs for the Tracer.
  virtual Result<data::Dataset> Deduplicate(
      data::Dataset dataset, ThreadPool* pool,
      std::vector<DuplicatePair>* pairs) = 0;

 protected:
  using Op::Op;
};

/// Formatter: unifies an external representation into a Dataset
/// (paper Sec. 4.1). Subclasses parse one format; LoadDataset() in
/// formatters.h dispatches on file suffix.
class Formatter : public Op {
 public:
  OpKind kind() const override { return OpKind::kFormatter; }

  /// Parses in-memory content.
  virtual Result<data::Dataset> LoadFromString(std::string_view content,
                                               std::string_view origin) = 0;

  /// Reads and parses a file.
  Result<data::Dataset> LoadFile(const std::string& path);

 protected:
  using Op::Op;
};

}  // namespace dj::ops

#endif  // DJ_OPS_OP_BASE_H_
