#ifndef DJ_CORE_PLAN_VERIFY_H_
#define DJ_CORE_PLAN_VERIFY_H_

#include <string>
#include <vector>

#include "core/fusion.h"

namespace dj::core {

/// One order inversion PlanFusion introduced relative to the recipe, with
/// the effect-based justification (or the conflict that forbids it).
struct SwapRecord {
  std::string moved_op;     ///< originally-later OP that now runs first
  std::string passed_op;    ///< originally-earlier OP it moved ahead of
  std::string justification;  ///< why the swap is licensed, or the conflict
  bool allowed = true;
};

/// Verdict of VerifyPlan: `ok` iff every inversion and every stage pairing
/// is licensed by the declared effect signatures. `swaps` is the full audit
/// trail (allowed and refused); `violations` the human-readable refusals.
struct PlanVerdict {
  bool ok = true;
  std::vector<SwapRecord> swaps;
  std::vector<std::string> violations;

  std::string ToString() const;
};

/// Statically checks `plan` (a PlanFusion output over `op_list`) against
/// each OP's declared effects:
///
///  - every OP of `op_list` must appear exactly once in the plan;
///  - two OPs whose order was inverted may swap only if their resolved
///    read/write sets do not conflict (ops::DescribeConflict);
///  - members of a stage share one pass over each row, so every pair inside
///    a stage must be conflict-free as well.
///
/// An OP whose effects do not resolve against its config (a placeholder
/// param set to "") is handled conservatively: any inversion or fusion
/// involving it is refused (identity plans always pass).
PlanVerdict VerifyPlan(const std::vector<ops::Op*>& op_list,
                       const std::vector<PlanUnit>& plan);

/// Convenience overload over owned OP lists (core::BuildOps output).
PlanVerdict VerifyPlan(const std::vector<std::unique_ptr<ops::Op>>& op_list,
                       const std::vector<PlanUnit>& plan);

}  // namespace dj::core

#endif  // DJ_CORE_PLAN_VERIFY_H_
