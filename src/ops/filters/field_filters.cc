#include "ops/filters/field_filters.h"

#include <limits>

namespace dj::ops {
namespace {

std::vector<std::string> ReadStringList(const json::Value& config,
                                        std::string_view key) {
  std::vector<std::string> out;
  if (!config.is_object()) return out;
  const json::Value* list = config.as_object().Find(key);
  if (list == nullptr || !list->is_array()) return out;
  for (const auto& v : list->as_array()) {
    if (v.is_string()) out.push_back(v.as_string());
  }
  return out;
}

}  // namespace

// --------------------------------------------------------- SuffixFilter --

const OpDeclaration& SuffixFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("suffix_filter", OpKind::kFilter)
          .Str("field", "meta.suffix", "field holding the suffix")
          .List("suffixes", "allowed suffixes (empty = all)"),
      OpEffects().Reads("@field").ProducesStat(stats_keys::kSuffix)};
  return d;
}

SuffixFilter::SuffixFilter(const json::Value& config)
    : Filter(Declaration(), config),
      field_(Param<std::string>("field")),
      suffixes_(ReadStringList(config, "suffixes")) {
  json::Array echo;
  for (const auto& s : suffixes_) echo.emplace_back(s);
  SetEffectiveParam("suffixes", json::Value(std::move(echo)));
}

Status SuffixFilter::ComputeStats(data::RowRef row, SampleContext*) const {
  if (HasStat(row, stats_keys::kSuffix)) return Status::Ok();
  const json::Value* v = row.Get(field_);
  std::string suffix = (v != nullptr && v->is_string()) ? v->as_string() : "";
  return WriteStat(row, stats_keys::kSuffix, json::Value(std::move(suffix)));
}

Result<bool> SuffixFilter::KeepRow(data::RowRef row) const {
  if (suffixes_.empty()) return true;
  std::string path =
      std::string(data::kStatsField) + "." + std::string(stats_keys::kSuffix);
  const json::Value* v = row.Get(path);
  if (v == nullptr || !v->is_string()) return false;
  for (const std::string& s : suffixes_) {
    if (v->as_string() == s) return true;
  }
  return false;
}

// ------------------------------------------------- SpecifiedFieldFilter --

// The specified-field family keeps its predicate on the live field (no
// stats indirection), so the read set is just the configured field.
const OpDeclaration& SpecifiedFieldFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("specified_field_filter", OpKind::kFilter)
          .Str("field", "meta.tag", "field to compare")
          .List("target_values", "values that keep the sample"),
      OpEffects().Reads("@field")};
  return d;
}

SpecifiedFieldFilter::SpecifiedFieldFilter(const json::Value& config)
    : Filter(Declaration(), config), field_(Param<std::string>("field")) {
  if (config.is_object()) {
    const json::Value* list = config.as_object().Find("target_values");
    if (list != nullptr && list->is_array()) {
      targets_ = list->as_array();
    }
  }
}

Status SpecifiedFieldFilter::ComputeStats(data::RowRef, SampleContext*) const {
  return Status::Ok();
}

Result<bool> SpecifiedFieldFilter::KeepRow(data::RowRef row) const {
  if (targets_.empty()) return true;
  const json::Value* v = row.Get(field_);
  if (v == nullptr) return false;
  for (const json::Value& target : targets_) {
    if (*v == target) return true;
  }
  return false;
}

// ------------------------------------------ SpecifiedNumericFieldFilter --

const OpDeclaration& SpecifiedNumericFieldFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("specified_numeric_field_filter", OpKind::kFilter)
          .Str("field", "meta.value", "numeric field to compare")
          .Double("min", std::numeric_limits<double>::lowest(), -kParamInf,
                  kParamInf, "minimum value")
          .Double("max", std::numeric_limits<double>::max(), -kParamInf,
                  kParamInf, "maximum value"),
      OpEffects().Reads("@field")};
  return d;
}

SpecifiedNumericFieldFilter::SpecifiedNumericFieldFilter(
    const json::Value& config)
    : Filter(Declaration(), config),
      field_(Param<std::string>("field")),
      min_(Param<double>("min")),
      max_(Param<double>("max")) {}

Status SpecifiedNumericFieldFilter::ComputeStats(data::RowRef,
                                                 SampleContext*) const {
  return Status::Ok();
}

Result<bool> SpecifiedNumericFieldFilter::KeepRow(data::RowRef row) const {
  const json::Value* v = row.Get(field_);
  if (v == nullptr || !v->is_number()) return false;
  double x = v->as_double();
  return x >= min_ && x <= max_;
}

// --------------------------------------------------- FieldExistsFilter --

const OpDeclaration& FieldExistsFilter::Declaration() {
  static const OpDeclaration d{
      OpSchema("field_exists_filter", OpKind::kFilter)
          .Str("field", "text", "field that must be present"),
      OpEffects().Reads("@field")};
  return d;
}

FieldExistsFilter::FieldExistsFilter(const json::Value& config)
    : Filter(Declaration(), config), field_(Param<std::string>("field")) {}

Status FieldExistsFilter::ComputeStats(data::RowRef, SampleContext*) const {
  return Status::Ok();
}

Result<bool> FieldExistsFilter::KeepRow(data::RowRef row) const {
  const json::Value* v = row.Get(field_);
  return v != nullptr && !v->is_null();
}

}  // namespace dj::ops
