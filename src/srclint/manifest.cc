#include "srclint/manifest.h"

#include <algorithm>

#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"

namespace dj::srclint {
namespace {

constexpr int kSchemaVersion = 2;

void SortUnique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void AppendStringSet(std::string* out, std::string_view key,
                     const std::vector<std::string>& set,
                     std::string_view indent) {
  out->append(indent);
  out->push_back('"');
  out->append(key);
  out->append("\": [");
  if (set.empty()) {
    out->append("],\n");
    return;
  }
  out->push_back('\n');
  for (size_t i = 0; i < set.size(); ++i) {
    out->append(indent);
    out->append("  ");
    json::EscapeStringTo(set[i], out);
    out->append(i + 1 < set.size() ? ",\n" : "\n");
  }
  out->append(indent);
  out->append("],\n");
}

Status ReadStringSet(const json::Value& obj, std::string_view key,
                     std::vector<std::string>* out) {
  const json::Value* v = obj.as_object().Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("manifest: missing key '" +
                                   std::string(key) + "'");
  }
  if (!v->is_array()) {
    return Status::InvalidArgument("manifest: '" + std::string(key) +
                                   "' must be an array");
  }
  for (const json::Value& item : v->as_array()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("manifest: '" + std::string(key) +
                                     "' entries must be strings");
    }
    out->push_back(item.as_string());
  }
  return Status::Ok();
}

void DiffSet(std::string_view what, const std::vector<std::string>& tree,
             const std::vector<std::string>& committed,
             std::vector<std::string>* out) {
  for (const std::string& name : tree) {
    if (!std::binary_search(committed.begin(), committed.end(), name)) {
      out->push_back(std::string(what) + " '" + name +
                     "' is in the tree but not the committed manifest");
    }
  }
  for (const std::string& name : committed) {
    if (!std::binary_search(tree.begin(), tree.end(), name)) {
      out->push_back(std::string(what) + " '" + name +
                     "' is in the committed manifest but not the tree");
    }
  }
}

}  // namespace

void Manifest::Normalize() {
  SortUnique(&fault_points);
  SortUnique(&sched_points);
  SortUnique(&lock_classes);
  SortUnique(&counters);
  SortUnique(&gauges);
  SortUnique(&histograms);
  SortUnique(&spans);
  SortUnique(&instants);
  SortUnique(&counter_series);
  SortUnique(&ops);
}

std::string Manifest::ToText() const {
  std::string out;
  out.reserve(8192);
  out.append("{\n");
  out.append("  \"schema_version\": ");
  out.append(std::to_string(kSchemaVersion));
  out.append(",\n");
  AppendStringSet(&out, "fault_points", fault_points, "  ");
  AppendStringSet(&out, "sched_points", sched_points, "  ");
  AppendStringSet(&out, "lock_classes", lock_classes, "  ");
  out.append("  \"metrics\": {\n");
  AppendStringSet(&out, "counters", counters, "    ");
  AppendStringSet(&out, "gauges", gauges, "    ");
  AppendStringSet(&out, "histograms", histograms, "    ");
  // Strip the trailing ",\n" of the last nested set.
  out.erase(out.size() - 2);
  out.append("\n  },\n");
  AppendStringSet(&out, "spans", spans, "  ");
  AppendStringSet(&out, "instants", instants, "  ");
  AppendStringSet(&out, "counter_series", counter_series, "  ");
  AppendStringSet(&out, "ops", ops, "  ");
  // Strip the trailing ",\n" of the last set.
  out.erase(out.size() - 2);
  out.append("\n}\n");
  return out;
}

Result<Manifest> Manifest::FromText(std::string_view text) {
  Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("manifest: " +
                                   parsed.status().message());
  }
  const json::Value& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("manifest: root must be an object");
  }
  int64_t version = root.GetInt("schema_version", -1);
  if (version != kSchemaVersion) {
    return Status::InvalidArgument(
        "manifest: schema_version " + std::to_string(version) +
        " unsupported (want " + std::to_string(kSchemaVersion) + ")");
  }
  for (const auto& [key, value] : root.as_object().entries()) {
    if (key != "schema_version" && key != "fault_points" &&
        key != "sched_points" && key != "lock_classes" && key != "metrics" &&
        key != "spans" && key != "instants" && key != "counter_series" &&
        key != "ops") {
      return Status::InvalidArgument("manifest: unknown key '" + key + "'");
    }
  }
  Manifest m;
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "fault_points", &m.fault_points));
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "sched_points", &m.sched_points));
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "lock_classes", &m.lock_classes));
  const json::Value* metrics = root.as_object().Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument("manifest: missing 'metrics' object");
  }
  for (const auto& [key, value] : metrics->as_object().entries()) {
    if (key != "counters" && key != "gauges" && key != "histograms") {
      return Status::InvalidArgument("manifest: unknown metrics key '" + key +
                                     "'");
    }
  }
  DJ_RETURN_IF_ERROR(ReadStringSet(*metrics, "counters", &m.counters));
  DJ_RETURN_IF_ERROR(ReadStringSet(*metrics, "gauges", &m.gauges));
  DJ_RETURN_IF_ERROR(ReadStringSet(*metrics, "histograms", &m.histograms));
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "spans", &m.spans));
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "instants", &m.instants));
  DJ_RETURN_IF_ERROR(
      ReadStringSet(root, "counter_series", &m.counter_series));
  DJ_RETURN_IF_ERROR(ReadStringSet(root, "ops", &m.ops));
  return m;
}

std::vector<std::string> Manifest::DiffAgainst(
    const Manifest& committed) const {
  std::vector<std::string> out;
  DiffSet("fault point", fault_points, committed.fault_points, &out);
  DiffSet("sched point", sched_points, committed.sched_points, &out);
  DiffSet("lock class", lock_classes, committed.lock_classes, &out);
  DiffSet("counter", counters, committed.counters, &out);
  DiffSet("gauge", gauges, committed.gauges, &out);
  DiffSet("histogram", histograms, committed.histograms, &out);
  DiffSet("span", spans, committed.spans, &out);
  DiffSet("instant", instants, committed.instants, &out);
  DiffSet("counter series", counter_series, committed.counter_series, &out);
  DiffSet("op", ops, committed.ops, &out);
  return out;
}

bool NameCovered(const std::vector<std::string>& set, std::string_view name) {
  for (const std::string& entry : set) {
    if (!entry.empty() && entry.back() == '*') {
      std::string_view prefix(entry.data(), entry.size() - 1);
      if (name.substr(0, prefix.size()) == prefix) return true;
    } else if (name == entry) {
      return true;
    }
  }
  return false;
}

}  // namespace dj::srclint
