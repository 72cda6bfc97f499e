#include "ops/param_spec.h"

namespace dj::ops {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kFormatter:
      return "formatter";
    case OpKind::kMapper:
      return "mapper";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kDeduplicator:
      return "deduplicator";
  }
  return "unknown";
}

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kBool:
      return "bool";
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "number";
    case ParamType::kString:
      return "string";
    case ParamType::kList:
      return "list";
  }
  return "unknown";
}

bool ValueMatchesType(const json::Value& value, ParamType type) {
  switch (type) {
    case ParamType::kBool:
      return value.is_bool();
    case ParamType::kInt:
      return value.is_int();
    case ParamType::kDouble:
      return value.is_number();
    case ParamType::kString:
      return value.is_string();
    case ParamType::kList:
      return value.is_array();
  }
  return false;
}

OpSchema::OpSchema(std::string op_name, OpKind kind)
    : op_name_(std::move(op_name)), kind_(kind) {
  // Every OP understands per-OP field targeting (paper Sec. 4.3).
  Str("text_key", "text", "dot-path of the field this OP processes");
}

const ParamSpec* OpSchema::Find(std::string_view key) const {
  for (const ParamSpec& spec : params_) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

std::vector<std::string> OpSchema::Keys() const {
  std::vector<std::string> out;
  out.reserve(params_.size());
  for (const ParamSpec& spec : params_) out.push_back(spec.key);
  return out;
}

OpSchema& OpSchema::Add(ParamSpec spec) {
  params_.push_back(std::move(spec));
  return *this;
}

OpSchema& OpSchema::Bool(std::string key, bool def, std::string doc) {
  return Add({std::move(key), ParamType::kBool, json::Value(def),
              -kParamInf, kParamInf, std::move(doc)});
}

OpSchema& OpSchema::Int(std::string key, int64_t def, double min_value,
                        double max_value, std::string doc) {
  return Add({std::move(key), ParamType::kInt, json::Value(def), min_value,
              max_value, std::move(doc)});
}

OpSchema& OpSchema::Double(std::string key, double def, double min_value,
                           double max_value, std::string doc) {
  return Add({std::move(key), ParamType::kDouble, json::Value(def), min_value,
              max_value, std::move(doc)});
}

OpSchema& OpSchema::Str(std::string key, std::string def, std::string doc) {
  return Add({std::move(key), ParamType::kString, json::Value(std::move(def)),
              -kParamInf, kParamInf, std::move(doc)});
}

OpSchema& OpSchema::List(std::string key, std::string doc) {
  return Add({std::move(key), ParamType::kList, json::Value(), -kParamInf,
              kParamInf, std::move(doc)});
}

OpSchema& OpSchema::StrNoDefault(std::string key, std::string doc) {
  return Add({std::move(key), ParamType::kString, json::Value(), -kParamInf,
              kParamInf, std::move(doc)});
}

OpSchema& OpSchema::KeepRange(double default_min, double default_max,
                              double lo, double hi,
                              const std::string& stat_doc) {
  Double("min", default_min, lo, hi,
         "keep samples with " + stat_doc + " >= min");
  return Double("max", default_max, lo, hi,
                "keep samples with " + stat_doc + " <= max");
}

json::Value OpSchema::ToJson() const {
  json::Object root;
  root.Set("name", json::Value(op_name_));
  root.Set("kind", json::Value(OpKindName(kind_)));
  json::Array params;
  for (const ParamSpec& spec : params_) {
    json::Object p;
    p.Set("key", json::Value(spec.key));
    p.Set("type", json::Value(ParamTypeName(spec.type)));
    p.Set("default", spec.def);
    if (spec.has_range()) {
      if (spec.min_value != -kParamInf) {
        p.Set("min", json::Value(spec.min_value));
      }
      if (spec.max_value != kParamInf) {
        p.Set("max", json::Value(spec.max_value));
      }
    }
    if (!spec.doc.empty()) p.Set("doc", json::Value(spec.doc));
    params.emplace_back(std::move(p));
  }
  root.Set("params", json::Value(std::move(params)));
  return json::Value(std::move(root));
}

}  // namespace dj::ops
