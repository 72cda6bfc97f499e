#include "ops/op_effects.h"

#include <algorithm>

#include "data/sample.h"
#include "ops/op_base.h"

namespace dj::ops {

namespace {

void AddUnique(std::vector<std::string>* fields, std::string field) {
  if (std::find(fields->begin(), fields->end(), field) == fields->end()) {
    fields->push_back(std::move(field));
  }
}

}  // namespace

OpEffects& OpEffects::Reads(std::string field) {
  AddUnique(&reads_, std::move(field));
  return *this;
}

OpEffects& OpEffects::Writes(std::string field) {
  AddUnique(&writes_, std::move(field));
  return *this;
}

OpEffects& OpEffects::ProducesStat(std::string_view key) {
  AddUnique(&stats_, std::string(key));
  return *this;
}

Result<ResolvedEffects> OpEffects::Resolve(const Op& op) const {
  ResolvedEffects out;
  auto resolve_field = [&](const std::string& field) -> Result<std::string> {
    if (field.empty() || field[0] != '@') return field;
    std::string param = field.substr(1);
    std::string value = op.config().GetString(param, "");
    if (value.empty()) {
      return Status::InvalidArgument(
          "effect placeholder '" + field + "' of OP '" + op.name() +
          "' does not resolve: effective config has no string param '" +
          param + "'");
    }
    return value;
  };
  for (const std::string& field : reads_) {
    DJ_ASSIGN_OR_RETURN(std::string resolved, resolve_field(field));
    AddUnique(&out.reads, std::move(resolved));
  }
  for (const std::string& field : writes_) {
    DJ_ASSIGN_OR_RETURN(std::string resolved, resolve_field(field));
    AddUnique(&out.writes, std::move(resolved));
  }
  for (const std::string& key : stats_) {
    std::string path = std::string(data::kStatsField) + "." + key;
    AddUnique(&out.reads, path);
    AddUnique(&out.writes, path);
    out.stats.push_back(key);
  }
  return out;
}

}  // namespace dj::ops
