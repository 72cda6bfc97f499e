#include "core/recipe.h"

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/io.h"
#include "json/parser.h"
#include "yaml/yaml.h"

namespace dj::core {
namespace {

bool IsKnownKey(std::string_view key) {
  for (std::string_view k : Recipe::KnownKeys()) {
    if (k == key) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::string_view>& Recipe::KnownKeys() {
  static const std::vector<std::string_view> kKnownKeys = {
      "project_name",      "dataset_path",   "export_path",
      "np",                "use_cache",      "cache_dir",
      "cache_compression", "use_checkpoint", "checkpoint_dir",
      "process"};
  return kKnownKeys;
}

Result<Recipe> Recipe::FromJson(const json::Value& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("recipe must be a mapping/object");
  }
  Recipe recipe;
  recipe.project_name = root.GetString("project_name", "");
  recipe.dataset_path = root.GetString("dataset_path", "");
  recipe.export_path = root.GetString("export_path", "");
  // Checked before the narrowing cast, so a huge `np` cannot wrap into range.
  const int64_t np = root.GetInt("np", 1);
  if (np < 1 || np > kMaxPoolThreads) {
    return Status::InvalidArgument("np must be in [1, " +
                                   std::to_string(kMaxPoolThreads) + "]");
  }
  recipe.num_workers = static_cast<int>(np);
  recipe.use_cache = root.GetBool("use_cache", false);
  recipe.cache_dir = root.GetString("cache_dir", "");
  recipe.cache_compression = root.GetBool("cache_compression", false);
  recipe.use_checkpoint = root.GetBool("use_checkpoint", false);
  recipe.checkpoint_dir = root.GetString("checkpoint_dir", "");

  const json::Value* process = root.as_object().Find("process");
  if (process != nullptr && !process->is_null()) {
    if (!process->is_array()) {
      return Status::InvalidArgument("'process' must be a list of OPs");
    }
    for (const json::Value& entry : process->as_array()) {
      if (entry.is_string()) {
        // Bare OP name with default params.
        recipe.process.push_back({entry.as_string(), json::Value(json::Object())});
        continue;
      }
      if (!entry.is_object() || entry.as_object().size() != 1) {
        return Status::InvalidArgument(
            "each 'process' entry must be a single-key mapping "
            "{op_name: {params}} or a bare op name");
      }
      const auto& [name, params] = entry.as_object().entries().front();
      if (!params.is_object() && !params.is_null()) {
        return Status::InvalidArgument("params of OP '" + name +
                                       "' must be a mapping");
      }
      OpSpec spec;
      spec.name = name;
      spec.params =
          params.is_object() ? params : json::Value(json::Object());
      recipe.process.push_back(std::move(spec));
    }
  }

  json::Object extras;
  for (const auto& [key, value] : root.as_object().entries()) {
    if (!IsKnownKey(key)) extras.Set(key, value);
  }
  recipe.extras = json::Value(std::move(extras));
  return recipe;
}

Result<Recipe> Recipe::FromString(std::string_view text) {
  std::string_view trimmed = StripAsciiWhitespace(text);
  Result<json::Value> parsed =
      !trimmed.empty() && trimmed.front() == '{' ? json::Parse(trimmed)
                                                 : yaml::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(parsed.value());
}

Result<Recipe> Recipe::FromFile(const std::string& path) {
  DJ_ASSIGN_OR_RETURN(std::string content, data::ReadFile(path));
  auto r = FromString(content);
  if (!r.ok()) {
    return Status(r.status().code(), path + ": " + r.status().message());
  }
  return r;
}

json::Value Recipe::ToJson() const {
  json::Object root;
  root.Set("project_name", json::Value(project_name));
  root.Set("dataset_path", json::Value(dataset_path));
  root.Set("export_path", json::Value(export_path));
  root.Set("np", json::Value(static_cast<int64_t>(num_workers)));
  root.Set("use_cache", json::Value(use_cache));
  root.Set("cache_dir", json::Value(cache_dir));
  root.Set("cache_compression", json::Value(cache_compression));
  root.Set("use_checkpoint", json::Value(use_checkpoint));
  root.Set("checkpoint_dir", json::Value(checkpoint_dir));
  json::Array process_list;
  for (const OpSpec& spec : process) {
    json::Object entry;
    entry.Set(spec.name, spec.params);
    process_list.emplace_back(std::move(entry));
  }
  root.Set("process", json::Value(std::move(process_list)));
  for (const auto& [key, value] : extras.as_object().entries()) {
    root.Set(key, value);
  }
  return json::Value(std::move(root));
}

}  // namespace dj::core
