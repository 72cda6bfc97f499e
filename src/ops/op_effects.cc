#include "ops/op_effects.h"

#include <algorithm>

#include "data/sample.h"
#include "ops/op_base.h"

namespace dj::ops {

const char* CardinalityName(Cardinality cardinality) {
  switch (cardinality) {
    case Cardinality::kRowPreserving:
      return "row-preserving";
    case Cardinality::kRowDropping:
      return "row-dropping";
    case Cardinality::kRowMerging:
      return "row-merging";
  }
  return "unknown";
}

namespace {

void AddUnique(std::vector<std::string>* fields, std::string field) {
  if (std::find(fields->begin(), fields->end(), field) == fields->end()) {
    fields->push_back(std::move(field));
  }
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i];
  }
  out += "}";
  return out;
}

}  // namespace

std::string ResolvedEffects::DescribeSets() const {
  return "reads " + JoinFields(reads) + ", writes " + JoinFields(writes);
}

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
  out.op_name = op.name();
  switch (op.kind()) {
    case OpKind::kFilter:
      out.cardinality = Cardinality::kRowDropping;
      break;
    case OpKind::kDeduplicator:
      out.cardinality = Cardinality::kRowMerging;
      break;
    case OpKind::kFormatter:
    case OpKind::kMapper:
      out.cardinality = Cardinality::kRowPreserving;
      break;
  }
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

bool FieldPathsAlias(std::string_view a, std::string_view b) {
  if (a == b) return true;
  if (a.size() < b.size()) std::swap(a, b);
  // b is now the shorter path; a aliases it iff b is a dot-segment prefix.
  return a.size() > b.size() && a[b.size()] == '.' &&
         a.substr(0, b.size()) == b;
}

namespace {

/// First aliasing pair between `writes` and `reads`, described as
/// "'reader' reads 'r' which 'writer' writes ('w')"; "" when disjoint.
std::string FindReadWriteOverlap(const ResolvedEffects& writer,
                                 const ResolvedEffects& reader) {
  for (const std::string& w : writer.writes) {
    for (const std::string& r : reader.reads) {
      if (FieldPathsAlias(w, r)) {
        std::string detail = w == r ? "" : " ('" + w + "')";
        return "'" + reader.op_name + "' reads '" + r + "' which '" +
               writer.op_name + "' writes" + detail;
      }
    }
  }
  return "";
}

}  // namespace

std::string DescribeConflict(const ResolvedEffects& a,
                             const ResolvedEffects& b) {
  for (const ResolvedEffects* e : {&a, &b}) {
    if (e->cardinality == Cardinality::kRowMerging) {
      return "'" + e->op_name +
             "' makes dataset-level (row-merging) decisions and never "
             "commutes";
    }
  }
  // RAW: b consumes what a produces — moving b ahead would read stale data.
  if (std::string c = FindReadWriteOverlap(a, b); !c.empty()) return c;
  // WAR: a consumes what b produces — moving b ahead would clobber a's input.
  if (std::string c = FindReadWriteOverlap(b, a); !c.empty()) return c;
  // WAW: last-writer-wins would flip with the order.
  for (const std::string& wa : a.writes) {
    for (const std::string& wb : b.writes) {
      if (FieldPathsAlias(wa, wb)) {
        return "'" + a.op_name + "' and '" + b.op_name + "' both write '" +
               (wa.size() >= wb.size() ? wa : wb) + "'";
      }
    }
  }
  return "";
}

}  // namespace dj::ops
