#include "obs/run_journal.h"

#include "common/file_util.h"
#include "json/writer.h"

namespace dj::obs {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

uint64_t CounterValueOr(const MetricsRegistry* metrics, std::string_view name,
                        uint64_t def) {
  if (metrics == nullptr) return def;
  // srclint-allow(dynamic-name): pass-through lookup helper; callers name the counter
  const Counter* c = metrics->FindCounter(name);
  return c == nullptr ? def : c->value();
}

}  // namespace

void RunJournal::SetRunInfo(std::string recipe, std::string dataset) {
  recipe_ = std::move(recipe);
  dataset_ = std::move(dataset);
}

void RunJournal::SetRunError(std::string stage, std::string status) {
  error_stage_ = std::move(stage);
  error_status_ = std::move(status);
}

void RunJournal::AddOp(OpStat stat) { ops_.push_back(std::move(stat)); }

void RunJournal::SetTotals(const RunTotals& totals) { totals_ = totals; }

void RunJournal::SetResources(const ResourceReport& usage) {
  resources_ = usage;
}

void RunJournal::SetProfile(json::Value profile) {
  profile_ = std::move(profile);
  has_profile_ = true;
}

void RunJournal::AddResourceSample(double wall_seconds_offset,
                                   uint64_t rss_bytes, double cpu_seconds,
                                   uint64_t base_ts_micros) {
  ++resource_samples_;
  if (spans_ == nullptr) return;
  uint64_t ts = base_ts_micros +
                static_cast<uint64_t>(wall_seconds_offset * 1e6);
  spans_->EmitCounter("rss_mib", ts, static_cast<double>(rss_bytes) / kMiB);
  spans_->EmitCounter("cpu_seconds", ts, cpu_seconds);
}

json::Value RunJournal::MetricsJson() const {
  json::Object out;
  out.Set("schema_version", json::Value(static_cast<int64_t>(1)));

  json::Object run;
  run.Set("recipe", json::Value(recipe_));
  run.Set("dataset", json::Value(dataset_));
  if (!error_stage_.empty()) {
    json::Object error;
    error.Set("stage", json::Value(error_stage_));
    error.Set("status", json::Value(error_status_));
    run.Set("error", json::Value(std::move(error)));
  }
  out.Set("run", json::Value(std::move(run)));

  json::Array ops;
  for (const OpStat& op : ops_) {
    json::Object o;
    o.Set("name", json::Value(op.name));
    o.Set("kind", json::Value(op.kind));
    o.Set("rows_in", json::Value(op.rows_in));
    o.Set("rows_out", json::Value(op.rows_out));
    o.Set("seconds", json::Value(op.seconds));
    o.Set("rows_per_sec",
          json::Value(op.seconds > 0
                          ? static_cast<double>(op.rows_in) / op.seconds
                          : 0.0));
    o.Set("cache_hit", json::Value(op.cache_hit));
    ops.emplace_back(std::move(o));
  }
  out.Set("ops", json::Value(std::move(ops)));

  json::Object totals;
  totals.Set("total_seconds", json::Value(totals_.total_seconds));
  totals.Set("rows_in", json::Value(totals_.rows_in));
  totals.Set("rows_out", json::Value(totals_.rows_out));
  totals.Set("cache_hits", json::Value(totals_.cache_hits));
  totals.Set("resumed_from_checkpoint",
             json::Value(totals_.resumed_from_checkpoint));
  out.Set("totals", json::Value(std::move(totals)));

  json::Object cache;
  cache.Set("hits",
            json::Value(CounterValueOr(metrics_, "cache.hit",
                                       totals_.cache_hits)));
  cache.Set("misses", json::Value(CounterValueOr(metrics_, "cache.miss", 0)));
  cache.Set("load_bytes",
            json::Value(CounterValueOr(metrics_, "cache.load_bytes", 0)));
  cache.Set("store_bytes",
            json::Value(CounterValueOr(metrics_, "cache.store_bytes", 0)));
  out.Set("cache", json::Value(std::move(cache)));

  json::Object resources;
  resources.Set("wall_seconds", json::Value(resources_.wall_seconds));
  resources.Set("peak_rss_bytes", json::Value(resources_.peak_rss_bytes));
  resources.Set("avg_rss_bytes", json::Value(resources_.avg_rss_bytes));
  resources.Set("cpu_seconds", json::Value(resources_.cpu_seconds));
  resources.Set("avg_cpu_utilization",
                json::Value(resources_.avg_cpu_utilization));
  resources.Set("samples", json::Value(static_cast<int64_t>(
                               resource_samples_)));
  out.Set("resources", json::Value(std::move(resources)));

  if (has_profile_) out.Set("profile", profile_);

  out.Set("metrics", metrics_ != nullptr ? metrics_->SnapshotJson()
                                         : json::Value(json::Object()));
  return json::Value(std::move(out));
}

Status RunJournal::WriteMetrics(const std::string& path) const {
  json::WriteOptions options;
  options.pretty = true;
  return WriteStringToFile(path, json::Write(MetricsJson(), options));
}

Status RunJournal::WriteTrace(const std::string& path) const {
  if (spans_ == nullptr) {
    return Status::InvalidArgument("RunJournal has no span recorder");
  }
  return spans_->WriteTo(path);
}

}  // namespace dj::obs
