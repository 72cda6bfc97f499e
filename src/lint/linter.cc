#include "lint/linter.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "data/sample.h"

namespace dj::lint {
namespace {

std::string ValueTypeName(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      return "null";
    case json::Value::Type::kBool:
      return "bool";
    case json::Value::Type::kInt:
      return "int";
    case json::Value::Type::kDouble:
      return "number";
    case json::Value::Type::kString:
      return "string";
    case json::Value::Type::kArray:
      return "list";
    case json::Value::Type::kObject:
      return "mapping";
  }
  return "unknown";
}

std::string FormatBound(double v) { return FormatDouble(v, 6); }

int SeverityRank(Severity s) { return static_cast<int>(s); }

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = SeverityName(severity);
  out += ": ";
  if (op_index >= 0) {
    out += "op[" + std::to_string(op_index) + "]";
    if (!op_name.empty()) out += " '" + op_name + "'";
    out += ": ";
  }
  out += message;
  if (!hint.empty()) out += " (" + hint + ")";
  return out;
}

json::Value Diagnostic::ToJson() const {
  json::Object root;
  root.Set("severity", json::Value(SeverityName(severity)));
  root.Set("op_index", json::Value(static_cast<int64_t>(op_index)));
  root.Set("op_name", json::Value(op_name));
  root.Set("message", json::Value(message));
  root.Set("hint", json::Value(hint));
  return json::Value(std::move(root));
}

size_t LintReport::Count(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string LintReport::ToString() const {
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return SeverityRank(a->severity) <
                            SeverityRank(b->severity);
                   });
  std::string out;
  for (const Diagnostic* d : sorted) {
    out += "  " + d->ToString() + "\n";
  }
  out += std::to_string(errors()) + " error(s), " +
         std::to_string(warnings()) + " warning(s), " +
         std::to_string(notes()) + " note(s)\n";
  return out;
}

json::Value LintReport::ToJson() const {
  json::Object root;
  root.Set("errors", json::Value(static_cast<int64_t>(errors())));
  root.Set("warnings", json::Value(static_cast<int64_t>(warnings())));
  root.Set("notes", json::Value(static_cast<int64_t>(notes())));
  json::Array list;
  for (const Diagnostic& d : diagnostics) list.push_back(d.ToJson());
  root.Set("diagnostics", json::Value(std::move(list)));
  return json::Value(std::move(root));
}

RecipeLinter::RecipeLinter(const ops::OpRegistry& registry)
    : registry_(registry) {}

std::string RecipeLinter::ClosestMatch(
    std::string_view name, const std::vector<std::string>& candidates) {
  std::string best;
  size_t best_dist = SIZE_MAX;
  for (const std::string& candidate : candidates) {
    size_t dist = EditDistance(name, candidate);
    if (dist < best_dist) {
      best_dist = dist;
      best = candidate;
    }
  }
  size_t limit = std::max<size_t>(2, name.size() / 4);
  return best_dist <= limit ? best : std::string();
}

LintReport RecipeLinter::Lint(const core::Recipe& recipe) const {
  LintReport report;
  auto add = [&report](Severity severity, int op_index, std::string op_name,
                       std::string message, std::string hint = "") {
    report.diagnostics.push_back({severity, op_index, std::move(op_name),
                                  std::move(message), std::move(hint)});
  };

  // ----- Recipe-level checks -------------------------------------------
  if (recipe.process.empty()) {
    add(Severity::kWarning, -1, "", "'process' list is empty; nothing runs");
  }
  if (recipe.use_cache && recipe.cache_dir.empty()) {
    add(Severity::kError, -1, "",
        "use_cache is enabled but cache_dir is empty",
        "set cache_dir to a writable directory");
  }
  if (recipe.use_checkpoint && recipe.checkpoint_dir.empty()) {
    add(Severity::kError, -1, "",
        "use_checkpoint is enabled but checkpoint_dir is empty",
        "set checkpoint_dir to a writable directory");
  }
  if (recipe.extras.is_object()) {
    std::vector<std::string> known;
    for (std::string_view k : core::Recipe::KnownKeys()) {
      known.emplace_back(k);
    }
    for (const auto& [key, value] : recipe.extras.as_object().entries()) {
      std::string suggestion = ClosestMatch(key, known);
      add(Severity::kWarning, -1, "",
          "unknown top-level key '" + key + "' is ignored",
          suggestion.empty() ? "" : "did you mean '" + suggestion + "'?");
    }
  }

  // ----- Per-OP checks --------------------------------------------------
  const std::vector<std::string> op_names = registry_.Names();
  std::vector<std::unique_ptr<ops::Op>> instances(recipe.process.size());
  // Keep-window facts gathered for the dataflow pass below: whether each
  // OP's [min, max] spans its schema's whole valid range (the filter then
  // drops nothing), and the first OP whose keep-range is empty.
  std::vector<bool> vacuous_bounds(recipe.process.size(), false);
  int first_empty_range = -1;
  for (size_t i = 0; i < recipe.process.size(); ++i) {
    const core::OpSpec& spec = recipe.process[i];
    const int idx = static_cast<int>(i);
    const ops::OpDeclaration* declaration = registry_.Find(spec.name);
    if (declaration == nullptr) {
      std::string suggestion = ClosestMatch(spec.name, op_names);
      add(Severity::kError, idx, spec.name, "unknown OP",
          suggestion.empty() ? "see dj_lint --ops for the full list"
                             : "did you mean '" + suggestion + "'?");
      continue;
    }

    const ops::OpSchema& schema = declaration->schema;
    if (spec.params.is_object()) {
      for (const auto& [key, value] : spec.params.as_object().entries()) {
        const ops::ParamSpec* param = schema.Find(key);
        if (param == nullptr) {
          std::string suggestion = ClosestMatch(key, schema.Keys());
          add(Severity::kError, idx, spec.name,
              "unknown param '" + key + "' would be silently ignored",
              suggestion.empty() ? "" : "did you mean '" + suggestion + "'?");
          continue;
        }
        if (!ops::ValueMatchesType(value, param->type)) {
          add(Severity::kError, idx, spec.name,
              "param '" + key + "' expects " + ops::ParamTypeName(param->type) +
                  ", got " + ValueTypeName(value));
          continue;
        }
        if (value.is_number() && param->has_range()) {
          double v = value.as_double();
          if (v < param->min_value || v > param->max_value) {
            add(Severity::kWarning, idx, spec.name,
                "param '" + key + "' value " + FormatBound(v) +
                    " is outside the valid range [" +
                    FormatBound(param->min_value) + ", " +
                    FormatBound(param->max_value) + "]");
          }
        }
      }

      // Empty keep-range: effective min above effective max drops every
      // sample (paper recipes rely on [min, max] keep-windows).
      const ops::ParamSpec* min_spec = schema.Find("min");
      const ops::ParamSpec* max_spec = schema.Find("max");
      if (min_spec != nullptr && max_spec != nullptr) {
        const json::Value* min_v = spec.params.as_object().Find("min");
        const json::Value* max_v = spec.params.as_object().Find("max");
        double min_eff = (min_v != nullptr && min_v->is_number())
                             ? min_v->as_double()
                             : (min_spec->def.is_number()
                                    ? min_spec->def.as_double()
                                    : -ops::kParamInf);
        double max_eff = (max_v != nullptr && max_v->is_number())
                             ? max_v->as_double()
                             : (max_spec->def.is_number()
                                    ? max_spec->def.as_double()
                                    : ops::kParamInf);
        if (min_eff > max_eff) {
          add(Severity::kError, idx, spec.name,
              "empty keep-range: effective min " + FormatBound(min_eff) +
                  " > max " + FormatBound(max_eff) +
                  " discards every sample");
          if (first_empty_range < 0) first_empty_range = idx;
        }
        vacuous_bounds[i] =
            min_eff <= min_spec->min_value &&
            (max_eff >= max_spec->max_value ||
             max_eff >= std::numeric_limits<double>::max());
      }
    }

    auto created = registry_.Create(spec.name, spec.params);
    if (created.ok()) {
      instances[i] = std::move(created).value();
    } else {
      add(Severity::kError, idx, spec.name,
          "OP fails to instantiate: " + created.status().ToString());
    }
  }

  // ----- Duplicate identical OPs ---------------------------------------
  for (size_t j = 1; j < recipe.process.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (recipe.process[i].name == recipe.process[j].name &&
          recipe.process[i].params == recipe.process[j].params) {
        add(Severity::kWarning, static_cast<int>(j), recipe.process[j].name,
            "identical duplicate of op[" + std::to_string(i) + "]",
            "drop one of the two");
        break;
      }
    }
  }

  // ----- OP ordering: dedup before cleaning mappers --------------------
  // The paper's recipes clean text first so near-duplicates differing only
  // in markup/noise actually collide in the deduplicator.
  for (size_t i = 0; i < instances.size(); ++i) {
    if (instances[i] == nullptr ||
        instances[i]->kind() != ops::OpKind::kDeduplicator) {
      continue;
    }
    for (size_t j = i + 1; j < instances.size(); ++j) {
      if (instances[j] != nullptr &&
          instances[j]->kind() == ops::OpKind::kMapper) {
        add(Severity::kWarning, static_cast<int>(i), recipe.process[i].name,
            "deduplicator runs before cleaning mapper '" +
                recipe.process[j].name + "' (op[" + std::to_string(j) + "])",
            "move dedup after the mappers so cleaned duplicates collide");
        break;
      }
    }
  }

  // ----- Effect dataflow (available-field propagation) -----------------
  // Walk the pipeline with the declared OpEffects, tracking which stats
  // keys earlier OPs have produced. The "stats" column is a closed
  // namespace — it only exists through this recipe's own OPs — so a read
  // of a never-produced stats field is a hard error. Reads of other
  // columns (text, meta.*) depend on the input data, which static
  // analysis cannot see.
  std::vector<std::optional<ops::ResolvedEffects>> fx(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    if (instances[i] == nullptr) continue;
    auto resolved =
        instances[i]->declaration().effects.Resolve(*instances[i]);
    if (!resolved.ok()) {
      add(Severity::kWarning, static_cast<int>(i), recipe.process[i].name,
          "effect signature does not resolve: " +
              resolved.status().ToString());
      continue;
    }
    fx[i] = std::move(resolved).value();
  }

  const std::string stats_prefix = std::string(data::kStatsField) + ".";
  auto is_own_stat = [](const ops::ResolvedEffects& e,
                        const std::string& key) {
    return std::find(e.stats.begin(), e.stats.end(), key) != e.stats.end();
  };
  std::map<std::string, size_t> stat_producer;  // stat key -> OP index
  for (size_t i = 0; i < fx.size(); ++i) {
    if (!fx[i].has_value()) continue;
    const int idx = static_cast<int>(i);
    for (const std::string& path : fx[i]->reads) {
      if (path.compare(0, stats_prefix.size(), stats_prefix) != 0) {
        continue;
      }
      std::string key = path.substr(stats_prefix.size());
      if (is_own_stat(*fx[i], key)) continue;
      if (stat_producer.find(key) != stat_producer.end()) continue;
      std::string hint;
      for (const ops::OpDeclaration* d : registry_.Declarations()) {
        const auto& produced = d->effects.stats_produced();
        if (std::find(produced.begin(), produced.end(), key) !=
            produced.end()) {
          hint = "run '" + d->schema.op_name() + "' earlier in the recipe "
                 "to produce it";
          break;
        }
      }
      add(Severity::kError, idx, recipe.process[i].name,
          "reads stat '" + key + "' ('" + path +
              "') which no earlier OP produces",
          hint);
    }
    for (const std::string& key : fx[i]->stats) {
      auto it = stat_producer.find(key);
      if (it != stat_producer.end()) {
        add(Severity::kWarning, idx, recipe.process[i].name,
            "stat '" + key + "' was already produced by op[" +
                std::to_string(it->second) + "] '" +
                recipe.process[it->second].name +
                "'; ComputeStats skips present stats, so this OP filters "
                "on the earlier OP's value",
            "give the two OPs different text_key fields or drop one");
      } else {
        stat_producer[key] = i;
      }
    }
  }

  // Dead stat writes: the OP computes a stat but its keep-window spans
  // the whole valid range (drops nothing), no later OP reads the stat,
  // and the recipe exports nothing that would carry it. Advisory only —
  // analysis-style recipes do this on purpose and export via --output.
  if (recipe.export_path.empty()) {
    for (size_t i = 0; i < fx.size(); ++i) {
      if (!fx[i].has_value() || !vacuous_bounds[i]) continue;
      for (const std::string& key : fx[i]->stats) {
        if (stat_producer.find(key) != stat_producer.end() &&
            stat_producer[key] != i) {
          continue;  // collision already diagnosed above
        }
        bool read_later = false;
        for (size_t j = i + 1; j < fx.size() && !read_later; ++j) {
          if (!fx[j].has_value()) continue;
          std::string path = stats_prefix + key;
          read_later = !is_own_stat(*fx[j], key) &&
                       std::find(fx[j]->reads.begin(), fx[j]->reads.end(),
                                 path) != fx[j]->reads.end();
        }
        if (!read_later) {
          add(Severity::kNote, static_cast<int>(i), recipe.process[i].name,
              "dead write: stat '" + key + "' is computed but the bounds "
              "keep every sample, no later OP reads it, and the recipe "
              "has no export_path");
        }
      }
    }
  }

  // Everything after an empty keep-range runs on zero rows.
  if (first_empty_range >= 0 &&
      static_cast<size_t>(first_empty_range) + 1 < instances.size()) {
    add(Severity::kWarning, first_empty_range + 1,
        recipe.process[first_empty_range + 1].name,
        "unreachable: op[" + std::to_string(first_empty_range) + "] '" +
            recipe.process[first_empty_range].name +
            "' discards every sample, so this OP and all later OPs "
            "process nothing");
  }

  // ----- Fusion notes (paper Sec. 7) ------------------------------------
  // core::PlanFusion makes each run of two or more consecutive filters one
  // stage; any other OP ends the run.
  bool all_instantiated =
      std::all_of(instances.begin(), instances.end(),
                  [](const std::unique_ptr<ops::Op>& op) {
                    return op != nullptr;
                  });
  if (all_instantiated) {
    auto is_filter = [&](size_t k) {
      return instances[k]->kind() == ops::OpKind::kFilter;
    };
    // A non-filter with filters on both sides splits a stage.
    for (size_t i = 1; i + 1 < instances.size(); ++i) {
      if (!is_filter(i) && is_filter(i - 1) && is_filter(i + 1)) {
        add(Severity::kNote, static_cast<int>(i), recipe.process[i].name,
            "non-filter OP splits a filter group; fusion cannot cross it",
            "move it before or after the surrounding filters if "
            "order-independent");
      }
    }
  }

  return report;
}

}  // namespace dj::lint
