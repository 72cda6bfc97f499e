#include "ops/op_base.h"

#include <cstdlib>

#include "common/logging.h"
#include "data/io.h"
#include "data/sample.h"

namespace dj::ops {

namespace {

/// `p`'s effective value under `config`, coerced to its declared type the
/// way json::Value's typed getters coerce (an int where a number is
/// declared becomes a double; a double where an int is declared truncates).
json::Value EffectiveValue(const json::Value& config, const ParamSpec& p) {
  switch (p.type) {
    case ParamType::kBool:
      return json::Value(config.GetBool(p.key, p.def.as_bool()));
    case ParamType::kInt:
      return json::Value(config.GetInt(p.key, p.def.as_int()));
    case ParamType::kDouble:
      return json::Value(config.GetDouble(p.key, p.def.as_double()));
    default:  // kString: OpSchema::List declares no default
      return json::Value(config.GetString(p.key, p.def.as_string()));
  }
}

}  // namespace

Op::Op(const OpDeclaration& declaration, const json::Value& config)
    : declaration_(&declaration),
      config_(config.is_object() ? config : json::Value(json::Object())) {
  for (const ParamSpec& p : declaration.schema.params()) {
    if (!p.def.is_null()) {
      config_.as_object().Set(p.key, EffectiveValue(config_, p));
    }
  }
  text_key_ = Param<std::string>("text_key");
}

const json::Value& Op::DeclaredValue(std::string_view key,
                                     ParamType type) const {
  const ParamSpec* p = declaration_->schema.Find(key);
  if (p == nullptr || p->def.is_null() || p->type != type) {
    DJ_LOG(Error) << "OP '" << name() << "' reads param '" << key << "' as "
                  << ParamTypeName(type) << ", but its schema does not "
                  << "declare it as one with a default";
    std::abort();
  }
  return *config_.as_object().Find(key);
}

void Op::SetEffectiveParam(std::string_view key, json::Value value) {
  const ParamSpec* p = declaration_->schema.Find(key);
  if (p == nullptr || !p->def.is_null()) {
    DJ_LOG(Error) << "OP '" << name() << "' records param '" << key
                  << "', but its schema does not declare it without a "
                  << "default";
    std::abort();
  }
  config_.as_object().Set(std::string(key), std::move(value));
}

OpDeclaration Mapper::Declare(OpSchema schema) {
  return {std::move(schema),
          OpEffects().Reads("@text_key").Writes("@text_key")};
}

Status Mapper::ProcessRow(data::RowRef row) const {
  const json::Value* v = row.Get(text_key());
  if (v == nullptr || !v->is_string()) return Status::Ok();
  DJ_ASSIGN_OR_RETURN(std::string out, TransformText(v->as_string()));
  if (out != v->as_string()) {
    DJ_RETURN_IF_ERROR(row.Set(text_key(), json::Value(std::move(out))));
  }
  return Status::Ok();
}

Status WriteStatSorted(data::RowRef row, std::string_view key,
                       json::Value value) {
  json::Value* cell = row.GetMutable(data::kStatsField);
  if (cell == nullptr) {
    return Status::NotFound("column 'stats' does not exist; call "
                            "EnsureColumn first");
  }
  if (cell->is_null()) *cell = json::Value(json::Object());
  if (!cell->is_object()) {
    return Status::InvalidArgument("cell 'stats' is not an object");
  }
  cell->as_object().SetSorted(std::string(key), std::move(value));
  return Status::Ok();
}

Status Filter::WriteStat(data::RowRef row, std::string_view key,
                         json::Value value) const {
  return WriteStatSorted(row, key, std::move(value));
}

bool Filter::HasStat(data::RowRef row, std::string_view key) const {
  std::string path = std::string(data::kStatsField) + "." + std::string(key);
  const json::Value* v = row.Get(path);
  return v != nullptr && !v->is_null();
}

double Filter::ReadStat(data::RowRef row, std::string_view key,
                        double def) const {
  std::string path = std::string(data::kStatsField) + "." + std::string(key);
  return row.GetNumber(path, def);
}

Result<data::Dataset> Formatter::LoadFile(const std::string& path) const {
  DJ_ASSIGN_OR_RETURN(std::string content, data::ReadFile(path));
  return LoadFromString(content, path);
}

}  // namespace dj::ops
