#ifndef DJ_CORE_FUSION_H_
#define DJ_CORE_FUSION_H_

#include <memory>
#include <string>
#include <vector>

#include "ops/op_base.h"

namespace dj::core {

/// One executable unit of a fused plan: either a single OP, or a group of
/// fusible Filters executed in one pass with a shared SampleContext.
struct PlanUnit {
  /// Non-null for single-OP units.
  ops::Op* op = nullptr;
  /// Non-empty for fused units (all entries are Filters).
  std::vector<ops::Filter*> fused;

  bool is_fused() const { return !fused.empty(); }
  std::string DisplayName() const;
  double CostEstimate() const;
};

struct FusionOptions {
  bool enable_fusion = true;
  bool enable_reorder = true;
};

/// Builds the execution plan for `op_list` (paper Sec. 7 / Fig. 6):
///
///  1. Detect OP groups: maximal runs of consecutive Filters (Filters are
///     commutative with each other; Mappers/Deduplicators are barriers).
///  2. Within each group, fuse the context-sharing Filters (declared with
///     OpEffects::WithContext) into one fused OP.
///  3. Reorder each group: cheap OPs first (by CostEstimate), the fused OP
///     last, so expensive stats run on fewer samples after cheap filters
///     have discarded some.
///
/// OPs are not owned; the plan borrows raw pointers from `op_list`.
std::vector<PlanUnit> PlanFusion(
    const std::vector<std::unique_ptr<ops::Op>>& op_list,
    const FusionOptions& options);

/// Raw-pointer overload (OPs borrowed; used for pipeline subranges).
std::vector<PlanUnit> PlanFusion(const std::vector<ops::Op*>& op_list,
                                 const FusionOptions& options);

}  // namespace dj::core

#endif  // DJ_CORE_FUSION_H_
