#ifndef DJ_OPS_FILTERS_FIELD_FILTERS_H_
#define DJ_OPS_FILTERS_FIELD_FILTERS_H_

#include <string>
#include <vector>

#include "ops/op_base.h"
#include "ops/stats_keys.h"

namespace dj::ops {

/// suffix_filter: keeps samples whose `meta.suffix` (configurable via
/// `field`) is in the allowed `suffixes` list (e.g. [".txt", ".md"]).
class SuffixFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit SuffixFilter(const json::Value& config);

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  std::string field_;
  std::vector<std::string> suffixes_;
};

/// specified_field_filter: keeps samples whose value at `field` equals one
/// of `target_values` (strings compared as strings, numbers numerically).
/// This is the meta-tag filtering of the HPO mixing example (Sec. 5.1).
class SpecifiedFieldFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit SpecifiedFieldFilter(const json::Value& config);

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  std::string field_;
  std::vector<json::Value> targets_;
};

/// specified_numeric_field_filter: keeps samples whose numeric value at
/// `field` lies within [min, max] (e.g. GitHub star counts, paper Sec. 4.3).
class SpecifiedNumericFieldFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit SpecifiedNumericFieldFilter(const json::Value& config);

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  std::string field_;
  double min_;
  double max_;
};

/// field_exists_filter: keeps samples where `field` is present and non-null.
class FieldExistsFilter : public Filter {
 public:
  static const OpDeclaration& Declaration();
  explicit FieldExistsFilter(const json::Value& config);

  Status ComputeStats(data::RowRef row, SampleContext* ctx) const override;
  Result<bool> KeepRow(data::RowRef row) const override;

 private:
  std::string field_;
};

}  // namespace dj::ops

#endif  // DJ_OPS_FILTERS_FIELD_FILTERS_H_
