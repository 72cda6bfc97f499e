// dj_lint: static recipe analyzer. Checks recipes against the OP registry's
// declared parameter schemas and the fusion planner without touching any
// data — a typo'd OP name or param key is caught in milliseconds instead of
// minutes into a run.
//
// Usage:
//   dj_lint [--json] [--strict|--Werror] [--no-fusion-notes]
//           [--explain-plan] recipe.yaml [more.yaml]
//   dj_lint --ops [--json]          # list OPs and their declared params
//
// --explain-plan additionally prints each recipe's optimized execution plan
// with a per-swap justification from the OP effect signatures
// (core::VerifyPlan).
//
// Exit codes:
//   0  no errors (warnings and notes allowed; with --strict/--Werror,
//      warnings also count as failures)
//   1  lint errors, an unreadable/unparseable recipe, or (under
//      --strict/--Werror) warnings
//   2  usage error

#include <cstdio>
#include <string>
#include <vector>

#include "core/recipe.h"
#include "json/writer.h"
#include "lint/explain_plan.h"
#include "lint/linter.h"
#include "ops/registry.h"

namespace {

struct Args {
  std::vector<std::string> recipes;
  bool json = false;
  bool strict = false;
  bool fusion_notes = true;
  bool explain_plan = false;
  bool list_ops = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--strict|--Werror] [--no-fusion-notes] "
               "[--explain-plan] recipe.yaml [more.yaml ...]\n"
               "       %s --ops [--json]\n",
               argv0, argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--json") {
      args->json = true;
    } else if (flag == "--strict" || flag == "--Werror") {
      args->strict = true;
    } else if (flag == "--explain-plan") {
      args->explain_plan = true;
    } else if (flag == "--no-fusion-notes") {
      args->fusion_notes = false;
    } else if (flag == "--ops") {
      args->list_ops = true;
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    } else {
      args->recipes.push_back(flag);
    }
  }
  return args->list_ops || !args->recipes.empty();
}

int ListOps(const dj::ops::OpRegistry& registry, bool as_json) {
  if (as_json) {
    dj::json::Array ops;
    for (const dj::ops::OpDeclaration* d : registry.Declarations()) {
      ops.push_back(d->schema.ToJson());
    }
    dj::json::Object root;
    root.Set("ops", dj::json::Value(std::move(ops)));
    dj::json::WriteOptions pretty{.pretty = true};
    std::printf("%s\n",
                dj::json::Write(dj::json::Value(std::move(root)), pretty)
                    .c_str());
    return 0;
  }
  for (const dj::ops::OpDeclaration* d : registry.Declarations()) {
    const dj::ops::OpSchema& schema = d->schema;
    std::printf("%s [%s]\n", schema.op_name().c_str(),
                dj::ops::OpKindName(schema.kind()));
    for (const dj::ops::ParamSpec& p : schema.params()) {
      std::string line = "  " + p.key + ": " + dj::ops::ParamTypeName(p.type);
      if (!p.def.is_null()) {
        line += " = " + dj::json::Write(p.def);
      }
      if (!p.doc.empty()) line += "  # " + p.doc;
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  const dj::ops::OpRegistry& registry = dj::ops::OpRegistry::Global();
  if (args.list_ops) return ListOps(registry, args.json);

  dj::lint::RecipeLinter::Options options;
  options.fusion_notes = args.fusion_notes;
  dj::lint::RecipeLinter linter(registry, options);

  bool failed = false;
  dj::json::Array files;
  for (const std::string& path : args.recipes) {
    auto recipe = dj::core::Recipe::FromFile(path);
    if (!recipe.ok()) {
      if (args.json) {
        dj::json::Object entry;
        entry.Set("path", dj::json::Value(path));
        entry.Set("parse_error",
                  dj::json::Value(recipe.status().ToString()));
        files.emplace_back(std::move(entry));
      } else {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     recipe.status().ToString().c_str());
      }
      failed = true;
      continue;
    }
    dj::lint::LintReport report = linter.Lint(recipe.value());
    if (!report.ok() || (args.strict && report.warnings() > 0)) {
      failed = true;
    }
    if (args.json) {
      dj::json::Object entry;
      entry.Set("path", dj::json::Value(path));
      dj::json::Value body = report.ToJson();
      for (auto& [key, value] : body.as_object().entries()) {
        entry.Set(key, std::move(value));
      }
      files.emplace_back(std::move(entry));
    } else {
      std::printf("%s:\n%s", path.c_str(), report.ToString().c_str());
    }
    if (args.explain_plan) {
      auto plan = dj::lint::ExplainPlan(recipe.value(), registry);
      if (!plan.ok()) {
        std::fprintf(stderr, "%s: --explain-plan failed: %s\n", path.c_str(),
                     plan.status().ToString().c_str());
        failed = true;
      } else if (!args.json) {
        std::printf("%s", plan.value().c_str());
      }
    }
  }

  if (args.json) {
    dj::json::Object root;
    root.Set("files", dj::json::Value(std::move(files)));
    root.Set("ok", dj::json::Value(!failed));
    dj::json::WriteOptions pretty{.pretty = true};
    std::printf("%s\n",
                dj::json::Write(dj::json::Value(std::move(root)), pretty)
                    .c_str());
  }
  return failed ? 1 : 0;
}
