#ifndef DJ_CORE_FUSION_H_
#define DJ_CORE_FUSION_H_

#include <memory>
#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::core {

/// One executable unit of a plan: either a single OP, or a filter stage —
/// a run of consecutive Filters evaluated in one pass over the rows.
struct PlanUnit {
  /// Non-null for single-OP units.
  const ops::Op* op = nullptr;
  /// Non-empty for stages: the member Filters, in recipe order.
  std::vector<const ops::Filter*> fused;

  bool is_fused() const { return !fused.empty(); }
  std::string DisplayName() const;
};

/// Builds the execution plan for `op_list` (paper Sec. 7 / Fig. 6): each
/// maximal run of two or more consecutive Filters becomes one stage
/// (Mappers and Deduplicators are barriers); every other OP, a lone filter
/// included, is a unit of its own, and units keep recipe order. The
/// executor evaluates a stage's members row by row in recipe order,
/// sharing one SampleContext per text_key and stopping at the first
/// rejection.
///
/// OPs are not owned; the plan borrows raw pointers from `op_list`.
std::vector<PlanUnit> PlanFusion(
    const std::vector<std::unique_ptr<ops::Op>>& op_list);

/// Raw-pointer overload (OPs borrowed; used for pipeline subranges).
std::vector<PlanUnit> PlanFusion(const std::vector<const ops::Op*>& op_list);

}  // namespace dj::core

#endif  // DJ_CORE_FUSION_H_
