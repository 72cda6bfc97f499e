#include "core/plan_verify.h"

#include <unordered_map>

namespace dj::core {

std::string PlanVerdict::ToString() const {
  std::string out;
  for (const SwapRecord& s : swaps) {
    out += s.allowed ? "  + " : "  ! ";
    out += s.moved_op + " before " + s.passed_op + ": ";
    out += s.allowed ? s.justification : "REFUSED — " + s.justification;
    out += "\n";
  }
  for (const std::string& v : violations) {
    out += "  ! " + v + "\n";
  }
  // Upper case so a refused stage pair, which has no swap line, is as easy
  // to grep for as a refused swap.
  out += ok ? "verdict: licensed" : "verdict: REFUSED";
  if (ok && !swaps.empty()) {
    out += " (" + std::to_string(swaps.size()) + " swap(s) verified)";
  }
  out += "\n";
  return out;
}

PlanVerdict VerifyPlan(const std::vector<ops::Op*>& op_list,
                       const std::vector<PlanUnit>& plan) {
  PlanVerdict verdict;

  // Flatten the plan to execution order (a stage's members in the order
  // it evaluates them).
  std::vector<ops::Op*> exec;
  for (const PlanUnit& unit : plan) {
    if (unit.is_fused()) {
      for (ops::Filter* f : unit.fused) exec.push_back(f);
    } else if (unit.op != nullptr) {
      exec.push_back(unit.op);
    }
  }

  // The plan must be a permutation of the recipe's OP list.
  std::unordered_map<const ops::Op*, size_t> orig_index;
  for (size_t i = 0; i < op_list.size(); ++i) orig_index[op_list[i]] = i;
  if (exec.size() != op_list.size()) {
    verdict.ok = false;
    verdict.violations.push_back(
        "plan has " + std::to_string(exec.size()) + " OP(s) but the recipe "
        "has " + std::to_string(op_list.size()) +
        " — a transformation dropped or duplicated an OP");
    return verdict;
  }
  for (ops::Op* op : exec) {
    if (orig_index.find(op) == orig_index.end()) {
      verdict.ok = false;
      verdict.violations.push_back("plan contains OP '" + op->name() +
                                   "' that is not in the recipe");
      return verdict;
    }
  }

  // Effects of every plan OP, resolved once up front; one that does not
  // resolve is treated conservatively by the pair checks.
  std::vector<Result<ops::ResolvedEffects>> effects;
  effects.reserve(exec.size());
  for (const ops::Op* op : exec) {
    effects.push_back(op->declaration().effects.Resolve(*op));
  }

  auto check_pair = [&](size_t earlier, size_t later, bool inverted) {
    // `earlier`/`later` index `exec`; `inverted` marks a true order swap
    // (vs. a co-scheduled fused pair, which is checked but not a "swap").
    const ops::Op* a = exec[later];   // originally earlier
    const ops::Op* b = exec[earlier];  // originally later, now runs first
    if (!inverted) {
      a = exec[earlier];
      b = exec[later];
    }
    const auto& ea = inverted ? effects[later] : effects[earlier];
    const auto& eb = inverted ? effects[earlier] : effects[later];
    SwapRecord record;
    record.moved_op = b->name();
    record.passed_op = a->name();
    if (!ea.ok() || !eb.ok()) {
      record.allowed = false;
      record.justification = (!ea.ok() ? ea : eb).status().message() +
                             "; refusing to " +
                             (inverted ? "reorder" : "fuse") + " it";
    } else if (std::string conflict = ops::DescribeConflict(*ea, *eb);
               !conflict.empty()) {
      record.allowed = false;
      record.justification = conflict;
    } else {
      record.justification = "disjoint effects — " + b->name() + " " +
                             eb->DescribeSets() + "; " + a->name() + " " +
                             ea->DescribeSets();
    }
    if (!record.allowed) {
      verdict.ok = false;
      verdict.violations.push_back(
          (inverted ? "cannot run '" : "cannot fuse '") + record.moved_op +
          (inverted ? "' before '" : "' with '") + record.passed_op +
          "': " + record.justification);
    }
    if (inverted) verdict.swaps.push_back(std::move(record));
  };

  // Every order inversion vs. the recipe needs a license.
  for (size_t p = 0; p < exec.size(); ++p) {
    for (size_t q = p + 1; q < exec.size(); ++q) {
      if (orig_index[exec[p]] > orig_index[exec[q]]) {
        check_pair(p, q, /*inverted=*/true);
      }
    }
  }

  // Stage members share one pass over each row; any pair with conflicting
  // effects cannot share it even when their order is preserved.
  size_t base = 0;
  for (const PlanUnit& unit : plan) {
    size_t n = unit.is_fused() ? unit.fused.size() : 1;
    if (unit.is_fused()) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          if (orig_index[exec[base + i]] < orig_index[exec[base + j]]) {
            check_pair(base + i, base + j, /*inverted=*/false);
          }
        }
      }
    }
    base += n;
  }

  return verdict;
}

PlanVerdict VerifyPlan(const std::vector<std::unique_ptr<ops::Op>>& op_list,
                       const std::vector<PlanUnit>& plan) {
  std::vector<ops::Op*> raw;
  raw.reserve(op_list.size());
  for (const auto& op : op_list) raw.push_back(op.get());
  return VerifyPlan(raw, plan);
}

}  // namespace dj::core
