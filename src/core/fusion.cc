#include "core/fusion.h"

#include <algorithm>

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

double PlanUnit::CostEstimate() const {
  if (!is_fused()) return op->CostEstimate();
  double total = 0;
  for (const ops::Filter* f : fused) total += f->CostEstimate();
  return total;
}

namespace {

/// Flushes one group of consecutive filters into plan units.
void FlushFilterGroup(std::vector<ops::Filter*>* group,
                      const FusionOptions& options,
                      std::vector<PlanUnit>* plan) {
  if (group->empty()) return;
  // Fusible filters must share a SampleContext, which is only valid for
  // filters processing the same field — partition by text_key first.
  std::vector<std::pair<std::string, std::vector<ops::Filter*>>> by_field;
  std::vector<ops::Filter*> singles;
  for (ops::Filter* f : *group) {
    if (!options.enable_fusion || !f->declaration().effects.uses_context()) {
      singles.push_back(f);
      continue;
    }
    bool placed = false;
    for (auto& [field, filters] : by_field) {
      if (field == f->text_key()) {
        filters.push_back(f);
        placed = true;
        break;
      }
    }
    if (!placed) {
      by_field.emplace_back(f->text_key(), std::vector<ops::Filter*>{f});
    }
  }
  std::vector<std::vector<ops::Filter*>> fused_groups;
  for (auto& [field, filters] : by_field) {
    if (filters.size() >= 2) {
      fused_groups.push_back(std::move(filters));
    } else {
      singles.push_back(filters.front());
    }
  }
  // Both sorts below are stable on CostEstimate ties: equal-cost units keep
  // recipe order, so the plan (and dj_lint --explain-plan) is deterministic
  // across platforms and STL implementations.
  if (options.enable_reorder) {
    std::stable_sort(singles.begin(), singles.end(),
                     [](const ops::Filter* a, const ops::Filter* b) {
                       return a->CostEstimate() < b->CostEstimate();
                     });
    auto group_cost = [](const std::vector<ops::Filter*>& g) {
      double total = 0;
      for (const ops::Filter* f : g) total += f->CostEstimate();
      return total;
    };
    std::stable_sort(fused_groups.begin(), fused_groups.end(),
                     [&](const std::vector<ops::Filter*>& a,
                         const std::vector<ops::Filter*>& b) {
                       return group_cost(a) < group_cost(b);
                     });
  }
  for (ops::Filter* f : singles) {
    PlanUnit unit;
    unit.op = f;
    plan->push_back(std::move(unit));
  }
  // Fused units are the most expensive in the group and run last (paper:
  // delay time-consuming fused filters so they see fewer samples).
  for (auto& fused : fused_groups) {
    PlanUnit unit;
    unit.fused = std::move(fused);
    plan->push_back(std::move(unit));
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
