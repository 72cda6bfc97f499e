#ifndef DJ_LINT_EXPLAIN_PLAN_H_
#define DJ_LINT_EXPLAIN_PLAN_H_

#include <string>

#include "common/status.h"
#include "core/recipe.h"
#include "ops/registry.h"

namespace dj::lint {

/// Renders the execution plan of `recipe` (dj_lint --explain-plan): the
/// PlanFusion unit list, in recipe order, with each run of two or more
/// consecutive filters as one fused(...) stage. Fails when the recipe's OP
/// list does not instantiate.
Result<std::string> ExplainPlan(const core::Recipe& recipe,
                                const ops::OpRegistry& registry);

}  // namespace dj::lint

#endif  // DJ_LINT_EXPLAIN_PLAN_H_
