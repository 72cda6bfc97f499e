#ifndef DJ_LINT_EXPLAIN_PLAN_H_
#define DJ_LINT_EXPLAIN_PLAN_H_

#include <string>

#include "common/status.h"
#include "core/recipe.h"
#include "ops/registry.h"

namespace dj::lint {

/// Renders the optimized execution plan of `recipe` (dj_lint
/// --explain-plan): the PlanFusion unit list, one line per swap with its
/// effect-based justification from core::VerifyPlan, and the final verdict.
/// Honors the recipe's op_fusion flag; with it off it reports that OPs run
/// in recipe order. Fails when the recipe's OP list does not instantiate.
Result<std::string> ExplainPlan(const core::Recipe& recipe,
                                const ops::OpRegistry& registry);

}  // namespace dj::lint

#endif  // DJ_LINT_EXPLAIN_PLAN_H_
