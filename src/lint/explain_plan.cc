#include "lint/explain_plan.h"

#include <cstdio>
#include <memory>
#include <vector>

#include "core/executor.h"
#include "core/fusion.h"

namespace dj::lint {

Result<std::string> ExplainPlan(const core::Recipe& recipe,
                                const ops::OpRegistry& registry) {
  DJ_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<ops::Op>> ops,
                      core::BuildOps(recipe, registry));

  std::vector<core::PlanUnit> plan = core::PlanFusion(ops);

  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu OP(s) -> %zu unit(s)", ops.size(),
                plan.size());
  out += "plan";
  if (!recipe.project_name.empty()) out += " for '" + recipe.project_name + "'";
  out += ": " + std::string(buf) + "\n";
  for (size_t i = 0; i < plan.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "  unit[%zu] ", i);
    out += buf;
    out += plan[i].DisplayName() + "\n";
  }
  return out;
}

}  // namespace dj::lint
