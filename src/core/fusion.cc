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
/// the run has at least two members, else a unit of its own.
void FlushFilterGroup(std::vector<const ops::Filter*>* group,
                      std::vector<PlanUnit>* plan) {
  if (group->size() >= 2) {
    PlanUnit unit;
    unit.fused = std::move(*group);
    plan->push_back(std::move(unit));
  } else {
    for (const ops::Filter* f : *group) {
      PlanUnit unit;
      unit.op = f;
      plan->push_back(std::move(unit));
    }
  }
  group->clear();
}

}  // namespace

std::vector<PlanUnit> PlanFusion(
    const std::vector<std::unique_ptr<ops::Op>>& op_list) {
  std::vector<const ops::Op*> raw;
  raw.reserve(op_list.size());
  for (const auto& op : op_list) raw.push_back(op.get());
  return PlanFusion(raw);
}

std::vector<PlanUnit> PlanFusion(const std::vector<const ops::Op*>& op_list) {
  std::vector<PlanUnit> plan;
  std::vector<const ops::Filter*> filter_group;
  for (const ops::Op* op : op_list) {
    if (op->kind() == ops::OpKind::kFilter) {
      filter_group.push_back(static_cast<const ops::Filter*>(op));
      continue;
    }
    FlushFilterGroup(&filter_group, &plan);
    PlanUnit unit;
    unit.op = op;
    plan.push_back(std::move(unit));
  }
  FlushFilterGroup(&filter_group, &plan);
  return plan;
}

}  // namespace dj::core
