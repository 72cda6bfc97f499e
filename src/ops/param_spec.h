#ifndef DJ_OPS_PARAM_SPEC_H_
#define DJ_OPS_PARAM_SPEC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.h"

namespace dj::ops {

/// Operator categories (paper Table 1).
enum class OpKind { kFormatter, kMapper, kFilter, kDeduplicator };

const char* OpKindName(OpKind kind);

/// Declared type of one OP configuration parameter.
enum class ParamType { kBool, kInt, kDouble, kString, kList };

const char* ParamTypeName(ParamType type);

/// Whether a recipe-supplied value satisfies `type` (ints are accepted where
/// doubles are declared, not vice versa).
bool ValueMatchesType(const json::Value& value, ParamType type);

/// Declaration of one configuration parameter of an OP: key, type, default,
/// and (for numbers) the valid range. The recipe linter checks params
/// against it, and Op fills its effective config from the defaults.
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kDouble;
  /// Effective default; null when the OP computes the default itself
  /// (e.g. built-in lexicons) — the linter then skips default-based checks.
  json::Value def;
  /// Valid numeric range (inclusive); ignored for non-numeric types.
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  std::string doc;

  bool has_range() const {
    return min_value != -std::numeric_limits<double>::infinity() ||
           max_value != std::numeric_limits<double>::infinity();
  }
};

/// The declared configuration surface of one OP: its registry name, kind and
/// params. Built with the fluent helpers below as part of the OP's
/// OpDeclaration, so unknown or ill-typed recipe params can be diagnosed
/// before a run:
///
///   OpSchema("text_length_filter", OpKind::kFilter)
///       .Double("min", 10, 0, kInf, "minimum text length in codepoints")
///       .Double("max", kInf, 0, kInf, "maximum text length in codepoints");
class OpSchema {
 public:
  // srclint-allow(dynamic-name): the constructor's own declaration
  OpSchema(std::string op_name, OpKind kind);

  const std::string& op_name() const { return op_name_; }
  OpKind kind() const { return kind_; }
  const std::vector<ParamSpec>& params() const { return params_; }

  const ParamSpec* Find(std::string_view key) const;
  std::vector<std::string> Keys() const;

  /// Fluent declaration helpers (return *this for chaining).
  OpSchema& Bool(std::string key, bool def, std::string doc = "");
  OpSchema& Int(std::string key, int64_t def, double min_value,
                double max_value, std::string doc = "");
  OpSchema& Double(std::string key, double def, double min_value,
                   double max_value, std::string doc = "");
  OpSchema& Str(std::string key, std::string def, std::string doc = "");
  /// List param with no declared default (OP fills one in).
  OpSchema& List(std::string key, std::string doc = "");
  /// String param with no declared default.
  OpSchema& StrNoDefault(std::string key, std::string doc = "");
  /// A filter's keep-window over `stat_doc`: number params `min` and `max`
  /// with these defaults, both valid within [lo, hi].
  OpSchema& KeepRange(double default_min, double default_max, double lo,
                      double hi, const std::string& stat_doc);

  /// {"name": ..., "kind": ..., "params": [{key,type,default,min,max,doc}]}
  json::Value ToJson() const;

 private:
  OpSchema& Add(ParamSpec spec);

  std::string op_name_;
  OpKind kind_;
  std::vector<ParamSpec> params_;
};

/// Shorthand for open-ended numeric ranges in schema declarations.
inline constexpr double kParamInf = std::numeric_limits<double>::infinity();

}  // namespace dj::ops

#endif  // DJ_OPS_PARAM_SPEC_H_
