#include "core/fusion.h"

namespace dj::core {

std::string PlanUnit::DisplayName() const {
  if (!is_fused()) return std::string(op->name());
  std::string out = "fused(";
  for (size_t i = 0; i < fused.size(); ++i) {
    if (i > 0) out += ",";
    out += fused[i]->name();
  }
  out += ")";
  return out;
}

namespace {

/// Flushes one run of consecutive filters into plan units: one stage when
/// fusion is on and the run has at least two members, else one unit each.
void FlushFilterGroup(std::vector<ops::Filter*>* group,
                      const FusionOptions& options,
                      std::vector<PlanUnit>* plan) {
  if (options.enable_fusion && group->size() >= 2) {
    PlanUnit unit;
    unit.fused = std::move(*group);
    plan->push_back(std::move(unit));
  } else {
    for (ops::Filter* f : *group) {
      PlanUnit unit;
      unit.op = f;
      plan->push_back(std::move(unit));
    }
  }
  group->clear();
}

}  // namespace

std::vector<PlanUnit> PlanFusion(
    const std::vector<std::unique_ptr<ops::Op>>& op_list,
    const FusionOptions& options) {
  std::vector<ops::Op*> raw;
  raw.reserve(op_list.size());
  for (const auto& op : op_list) raw.push_back(op.get());
  return PlanFusion(raw, options);
}

std::vector<PlanUnit> PlanFusion(const std::vector<ops::Op*>& op_list,
                                 const FusionOptions& options) {
  std::vector<PlanUnit> plan;
  std::vector<ops::Filter*> filter_group;
  for (ops::Op* op : op_list) {
    if (op->kind() == ops::OpKind::kFilter) {
      filter_group.push_back(static_cast<ops::Filter*>(op));
      continue;
    }
    FlushFilterGroup(&filter_group, options, &plan);
    PlanUnit unit;
    unit.op = op;
    plan.push_back(std::move(unit));
  }
  FlushFilterGroup(&filter_group, options, &plan);
  return plan;
}

}  // namespace dj::core
