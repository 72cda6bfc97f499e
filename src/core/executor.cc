#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string_view>
#include <thread>

#include "common/logging.h"
#include "common/probe.h"
#include "common/stopwatch.h"
#include "common/thread_introspect.h"
#include "data/io.h"
#include "json/writer.h"

namespace dj::core {
namespace {

/// How long an armed "exec.stall" fault sleeps at the unit boundary (busy,
/// without beating the heartbeat) to simulate a hung OP: long enough to
/// trip a sub-100ms watchdog threshold in tests, short enough to not slow
/// them down.
constexpr double kFaultStallSeconds = 0.35;

/// Snapshot of the processed text field of every row (used by the Tracer to
/// diff Mapper edits and to report removed duplicates).
std::vector<std::string> SnapshotTexts(data::Dataset* ds,
                                       const std::string& text_key) {
  std::vector<std::string> out;
  out.reserve(ds->NumRows());
  for (size_t i = 0; i < ds->NumRows(); ++i) {
    out.emplace_back(ds->Row(i).GetText(text_key));
  }
  return out;
}

std::string StatsJsonOf(data::RowRef row) {
  const json::Value* stats = row.Get(data::kStatsField);
  return stats == nullptr ? "{}" : json::Write(*stats);
}

/// The SampleContexts of one row in a filter run: one per distinct
/// text_key, each built when the first member on that key needs it.
class RowContexts {
 public:
  RowContexts(data::RowRef row, const std::vector<std::string_view>& keys)
      : row_(row), keys_(keys), more_(keys.size() - 1) {}

  ops::SampleContext* Get(size_t key) {
    std::optional<ops::SampleContext>& slot =
        key == 0 ? first_ : more_[key - 1];
    if (!slot.has_value()) slot.emplace(row_.GetText(keys_[key]));
    return &*slot;
  }

 private:
  data::RowRef row_;
  const std::vector<std::string_view>& keys_;
  /// Most runs filter one field: its context needs no allocation.
  std::optional<ops::SampleContext> first_;
  std::vector<std::optional<ops::SampleContext>> more_;
};

/// Left-aligns `text` in a report column of `width`, then one space; a
/// longer text is kept whole and shifts the rest of its row.
void AppendColumn(std::string* out, std::string_view text, size_t width) {
  out->append(text);
  if (text.size() < width) out->append(width - text.size(), ' ');
  out->push_back(' ');
}

}  // namespace

Result<std::vector<std::unique_ptr<ops::Op>>> BuildOps(
    const Recipe& recipe, const ops::OpRegistry& registry) {
  std::vector<std::unique_ptr<ops::Op>> out;
  out.reserve(recipe.process.size());
  for (const OpSpec& spec : recipe.process) {
    DJ_ASSIGN_OR_RETURN(std::unique_ptr<ops::Op> op,
                        registry.Create(spec.name, spec.params));
    if (op->kind() == ops::OpKind::kFormatter) {
      return Status::InvalidArgument(
          "formatter '" + spec.name +
          "' cannot appear in 'process'; formatters load datasets");
    }
    out.push_back(std::move(op));
  }
  return out;
}

std::string RunReport::ToString() const {
  // Names go in as strings: a stage's name can run to hundreds of
  // characters. Only the fixed-width columns after it are formatted.
  constexpr size_t kNameWidth = 44;
  std::string out;
  char buf[256];
  AppendColumn(&out, "op", kNameWidth);
  std::snprintf(buf, sizeof(buf), "%-13s %9s %9s %9s %11s %7s %7s %6s\n",
                "kind", "rows_in", "rows_out", "sec", "rows/s", "%time",
                "%cpu", "cache");
  out += buf;
  // %-of-total uses the sum of per-OP seconds, not wall time, so cached
  // (zero-second) prefixes don't make the executed suffix sum to < 100%.
  double seconds_sum = 0;
  for (const OpReport& r : op_reports) seconds_sum += r.seconds;
  for (const OpReport& r : op_reports) {
    char throughput[32];
    if (r.seconds > 0) {
      std::snprintf(throughput, sizeof(throughput), "%.0f",
                    static_cast<double>(r.rows_in) / r.seconds);
    } else {
      std::snprintf(throughput, sizeof(throughput), "-");
    }
    char pct[16];
    if (seconds_sum > 0) {
      std::snprintf(pct, sizeof(pct), "%.1f%%", r.seconds / seconds_sum * 100);
    } else {
      std::snprintf(pct, sizeof(pct), "-");
    }
    char cpu[16];
    if (r.cpu_share >= 0) {
      std::snprintf(cpu, sizeof(cpu), "%.1f%%", r.cpu_share * 100);
    } else {
      std::snprintf(cpu, sizeof(cpu), "-");
    }
    AppendColumn(&out, r.name, kNameWidth);
    std::snprintf(buf, sizeof(buf),
                  "%-13s %9zu %9zu %9.3f %11s %7s %7s %6s\n", r.kind.c_str(),
                  r.rows_in, r.rows_out, r.seconds, throughput, pct, cpu,
                  r.cache_hit ? "hit" : "-");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "total: %.3fs, rows %zu -> %zu, cache hits %zu%s\n",
                total_seconds, rows_in, rows_out, cache_hits,
                resumed_from_checkpoint ? ", resumed from checkpoint" : "");
  out += buf;
  if (cache_stores + checkpoint_saves > 0) {
    std::snprintf(buf, sizeof(buf),
                  "persist: %.3fs (serialize + %zu cache store(s) + %zu "
                  "checkpoint save(s))\n",
                  persist_seconds, cache_stores, checkpoint_saves);
    out += buf;
  }
  if (unit_seconds_p50 >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "unit seconds: p50 %.3f, p95 %.3f, p99 %.3f\n",
                  unit_seconds_p50, unit_seconds_p95, unit_seconds_p99);
    out += buf;
  }
  // One line per stage that ran, numbered like the fused_filter rows.
  size_t stage_number = 0;
  for (const OpReport& r : op_reports) {
    if (r.kind != "fused_filter") continue;
    ++stage_number;
    if (r.stage.empty()) continue;
    out += "stage " + std::to_string(stage_number) + " order:";
    for (size_t i = 0; i < r.stage.size(); ++i) {
      out += i == 0 ? " " : ", ";
      out += r.stage[i].name + " (" + std::to_string(r.stage[i].rejected) +
             " rejected)";
    }
    out += "\n";
  }
  return out;
}

Executor::Executor(Options options)
    : options_(std::move(options)),
      pool_(static_cast<size_t>(std::max(options_.num_workers, 1))) {}

Executor::Options Executor::OptionsFromRecipe(const Recipe& recipe) {
  Options opts;
  opts.num_workers = recipe.num_workers;
  if (recipe.use_cache) opts.cache_dir = recipe.cache_dir;
  opts.cache_compression = recipe.cache_compression;
  if (recipe.use_checkpoint) opts.checkpoint_dir = recipe.checkpoint_dir;
  return opts;
}

Status Executor::RunMapper(const ops::Mapper* mapper,
                           data::Dataset* dataset) {
  std::optional<std::vector<std::string>> before;
  if (options_.tracer != nullptr) {
    before = SnapshotTexts(dataset, mapper->text_key());
  }
  {
    obs::Span span(options_.spans, "batch:" + mapper->name(), "batch");
    DJ_RETURN_IF_ERROR(ForEachIndex(&pool_, dataset->NumRows(), [&](size_t i) {
      return mapper->ProcessRow(dataset->Row(i));
    }));
  }
  if (before.has_value()) {
    for (size_t i = 0; i < dataset->NumRows(); ++i) {
      std::string_view after = dataset->Row(i).GetText(mapper->text_key());
      if (after != (*before)[i]) {
        options_.tracer->RecordEdit(mapper->name(), i, (*before)[i], after);
      }
    }
  }
  return Status::Ok();
}

Status Executor::RunFilters(const std::vector<const ops::Filter*>& filters,
                            data::Dataset* dataset,
                            std::vector<StageMember>* stage) {
  dataset->EnsureColumn(data::kStatsField);
  const size_t n = filters.size();
  // Members on the same field share one context per row: this is the
  // context-management optimization — Words()/Lines() compute once.
  std::vector<std::string_view> keys;
  std::vector<size_t> key_of(n);
  for (size_t f = 0; f < n; ++f) {
    auto it = std::find(keys.begin(), keys.end(), filters[f]->text_key());
    key_of[f] = static_cast<size_t>(it - keys.begin());
    if (it == keys.end()) keys.emplace_back(filters[f]->text_key());
  }

  obs::Span span(options_.spans, "batch:" + filters.front()->name(), "batch");
  // The member that rejected each row; n keeps it. Each row writes only its
  // own entry, so the fan-out shares nothing else.
  std::vector<size_t> rejected_by(dataset->NumRows(), n);
  DJ_RETURN_IF_ERROR(ForEachIndex(
      &pool_, dataset->NumRows(), [&](size_t i) -> Status {
        data::RowRef row = dataset->Row(i);
        RowContexts ctx(row, keys);
        for (size_t f = 0; f < n; ++f) {
          DJ_RETURN_IF_ERROR(
              filters[f]->ComputeStats(row, ctx.Get(key_of[f])));
          DJ_ASSIGN_OR_RETURN(bool kept, filters[f]->KeepRow(row));
          if (!kept) {
            rejected_by[i] = f;
            break;
          }
        }
        return Status::Ok();
      }));
  // One pass in row order: the counts, the survivors and the Tracer's
  // records come out the same at every pool width.
  std::vector<size_t> rejected(n, 0);
  std::vector<size_t> survivors;
  for (size_t i = 0; i < rejected_by.size(); ++i) {
    const size_t f = rejected_by[i];
    if (f == n) {
      survivors.push_back(i);
      continue;
    }
    ++rejected[f];
    if (options_.tracer != nullptr) {
      data::RowRef row = dataset->Row(i);
      options_.tracer->RecordFiltered(filters[f]->name(), i,
                                      row.GetText(filters[f]->text_key()),
                                      StatsJsonOf(row));
    }
  }
  if (stage != nullptr) {
    for (size_t f = 0; f < n; ++f) {
      stage->push_back({filters[f]->name(), rejected[f]});
    }
  }
  // Survivors are moved out of the old dataset instead of deep-copied (the
  // executor owns it and discards the pre-filter state).
  *dataset = std::move(*dataset).TakeSelect(survivors);
  return Status::Ok();
}

Status Executor::RunDeduplicator(const ops::Deduplicator* dedup,
                                 data::Dataset* dataset) {
  dataset->EnsureColumn(data::kStatsField);
  std::optional<std::vector<std::string>> texts;
  std::vector<ops::DuplicatePair> pairs;
  if (options_.tracer != nullptr) {
    texts = SnapshotTexts(dataset, dedup->text_key());
  }
  obs::Span span(options_.spans, "batch:" + dedup->name(), "batch");
  DJ_ASSIGN_OR_RETURN(
      data::Dataset result,
      dedup->Deduplicate(std::move(*dataset), &pool_,
                         options_.tracer != nullptr ? &pairs : nullptr));
  *dataset = std::move(result);
  if (texts.has_value()) {
    for (const ops::DuplicatePair& p : pairs) {
      options_.tracer->RecordDuplicate(dedup->name(), (*texts)[p.kept_row],
                                       (*texts)[p.removed_row], p.similarity);
    }
  }
  return Status::Ok();
}

Status Executor::RunUnit(const PlanUnit& unit, data::Dataset* dataset,
                         OpReport* report) {
  if (unit.is_fused()) return RunFilters(unit.fused, dataset, &report->stage);
  switch (unit.op->kind()) {
    case ops::OpKind::kMapper:
      return RunMapper(static_cast<const ops::Mapper*>(unit.op), dataset);
    case ops::OpKind::kFilter:
      return RunFilters({static_cast<const ops::Filter*>(unit.op)}, dataset,
                        nullptr);
    case ops::OpKind::kDeduplicator:
      return RunDeduplicator(static_cast<const ops::Deduplicator*>(unit.op),
                             dataset);
    case ops::OpKind::kFormatter:
      return Status::InvalidArgument("formatter in pipeline");
  }
  return Status::Internal("unreachable");
}

Result<data::Dataset> Executor::Run(
    data::Dataset dataset, const std::vector<std::unique_ptr<ops::Op>>& ops,
    RunReport* report) {
  std::vector<const ops::Op*> raw;
  raw.reserve(ops.size());
  for (const auto& op : ops) raw.push_back(op.get());
  return Run(std::move(dataset), raw, report);
}

Result<data::Dataset> Executor::Run(data::Dataset dataset,
                                    const std::vector<const ops::Op*>& ops,
                                    RunReport* report) {
  obs::Span run_span(options_.spans, "executor.run", "executor");
  // The run's driving thread is "busy" for the watchdog the whole run and
  // beats at every unit boundary below; a unit that hangs mid-OP leaves
  // the heartbeat stale and gets dumped.
  introspect::BusyScope busy_scope;
  if (introspect::Enabled()) {
    introspect::CurrentThreadState()->SetRole("executor");
  }
  Stopwatch total_watch;
  RunReport local_report;
  RunReport* rep = report != nullptr ? report : &local_report;
  rep->op_reports.clear();
  rep->rows_in = dataset.NumRows();

  const std::vector<PlanUnit> plan = PlanFusion(ops);

  std::optional<CacheManager> cache;
  if (!options_.cache_dir.empty()) {
    cache.emplace(options_.cache_dir, options_.cache_compression);
    cache->SetMetrics(options_.metrics);
    cache->SetPool(&pool_);
  }
  std::optional<CheckpointManager> checkpoints;
  if (!options_.checkpoint_dir.empty()) {
    checkpoints.emplace(options_.checkpoint_dir);
    checkpoints->SetPool(&pool_);
  }

  // Made only when a store is on: key_before[i] names the state entering
  // unit i, the input's content digest extended by the configs of the units
  // before it, so an edited input misses every stored entry.
  std::vector<uint64_t> key_before;
  size_t start_unit = 0;
  if (cache.has_value() || checkpoints.has_value()) {
    key_before.push_back(CacheManager::InitialKey(dataset, &pool_));
    for (const PlanUnit& unit : plan) {
      uint64_t key = key_before.back();
      if (unit.is_fused()) {
        for (const ops::Filter* f : unit.fused) {
          key = CacheManager::ExtendKey(key, f->name(), f->config());
        }
      } else {
        key = CacheManager::ExtendKey(key, unit.op->name(), unit.op->config());
      }
      key_before.push_back(key);
    }

    // Resume scan: the deepest stored prefix wins. At each depth a cache
    // entry is taken first, else a checkpoint entry; an entry that does not
    // load is evicted (cache) or counted (checkpoint) and the scan goes on.
    obs::Span scan_span(options_.spans, "cache.scan", "cache");
    bool from_cache = false;
    for (size_t i = plan.size(); i > 0; --i) {
      if (cache.has_value() && cache->Contains(key_before[i])) {
        auto loaded = cache->Load(key_before[i]);
        if (loaded.ok()) {
          dataset = std::move(loaded).value();
          start_unit = i;
          from_cache = true;
          break;
        }
        DJ_LOG(Warning) << "cache entry unreadable, evicting: "
                        << loaded.status().ToString();
        cache->Evict(key_before[i]);
      }
      if (!checkpoints.has_value()) continue;
      auto loaded = checkpoints->Load(key_before[i]);
      if (loaded.ok()) {
        dataset = std::move(loaded).value();
        start_unit = i;
        break;
      }
      if (loaded.status().code() != StatusCode::kNotFound) {
        // A torn/corrupt entry: refuse it loudly rather than decode
        // garbage, and look for a shallower prefix.
        DJ_LOG(Warning) << "ignoring unusable checkpoint: "
                        << loaded.status().ToString();
        if (options_.metrics != nullptr) {
          options_.metrics->GetCounter("checkpoint.load_rejected")->Increment();
        }
      }
    }
    // Record the units a cache entry skipped as cache hits.
    for (size_t j = 0; from_cache && j < start_unit; ++j) {
      OpReport r;
      r.name = plan[j].DisplayName();
      r.kind = plan[j].is_fused() ? "fused_filter"
                                  : ops::OpKindName(plan[j].op->kind());
      r.rows_in = r.rows_out = dataset.NumRows();
      r.cache_hit = true;
      if (options_.spans != nullptr) {
        options_.spans->EmitInstant("cache.hit:" + r.name, "cache",
                                    options_.spans->NowMicros());
      }
      rep->op_reports.push_back(std::move(r));
      ++rep->cache_hits;
    }
  }
  rep->resumed_from_checkpoint = checkpoints.has_value() && start_unit > 0;

  for (size_t i = start_unit; i < plan.size(); ++i) {
    Stopwatch unit_watch;
    OpReport r;
    r.name = plan[i].DisplayName();
    r.kind = plan[i].is_fused() ? "fused_filter"
                                : ops::OpKindName(plan[i].op->kind());
    r.rows_in = dataset.NumRows();

    // Fail-point probe at every OP boundary: an armed "exec.op_abort"
    // kills the pipeline here, after the state before this unit has been
    // checkpointed — the crash window the next run's resume must cover.
    if (DJ_FAULT("exec.op_abort")) {
      return Status::Aborted("fault injected: exec.op_abort before unit '" +
                             r.name + "'");
    }
    // Stall fault: sleep while busy without beating the heartbeat, as a
    // hung OP would. The run then continues — the point is to exercise the
    // watchdog's detection + dump path, not to kill anything.
    if (DJ_FAULT("exec.stall")) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kFaultStallSeconds));
    }
    introspect::Heartbeat();

    {
      obs::Span unit_span(options_.spans, "unit:" + r.name, "op");
      Status status = RunUnit(plan[i], &dataset, &r);
      if (!status.ok()) {
        return Status(status.code(),
                      "OP '" + r.name + "' failed: " + status.message());
      }
    }
    r.rows_out = dataset.NumRows();
    r.seconds = unit_watch.ElapsedSeconds();
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("op." + r.name + ".rows_in")
          ->Add(r.rows_in);
      options_.metrics->GetCounter("op." + r.name + ".rows_out")
          ->Add(r.rows_out);
      options_.metrics->GetGauge("op." + r.name + ".rows_per_sec")
          ->Set(r.seconds > 0 ? static_cast<double>(r.rows_in) / r.seconds
                              : 0.0);
      options_.metrics->GetHistogram("executor.unit_seconds")
          ->Observe(r.seconds);
    }
    rep->op_reports.push_back(std::move(r));

    // Persist the unit boundary: serialize once into one buffer and write
    // one file, the cache entry, or a checkpoint entry when there is no
    // cache or the store failed.
    if (cache.has_value() || checkpoints.has_value()) {
      Stopwatch persist_watch;
      const std::string djds = data::SerializeDataset(dataset, &pool_);
      bool stored = false;
      if (cache.has_value()) {
        obs::Span store_span(options_.spans, "cache.store", "cache");
        Status s = cache->Store(key_before[i + 1], djds);
        stored = s.ok();
        if (!stored) DJ_LOG(Warning) << "cache store failed: " << s.ToString();
        ++rep->cache_stores;
      }
      if (checkpoints.has_value() && !stored) {
        obs::Span ckpt_span(options_.spans, "checkpoint.save", "checkpoint");
        Status s = checkpoints->Save(key_before[i + 1], djds);
        if (!s.ok()) DJ_LOG(Warning) << "checkpoint failed: " << s.ToString();
        if (options_.metrics != nullptr) {
          options_.metrics->GetCounter("checkpoint.saves")->Increment();
        }
        ++rep->checkpoint_saves;
      }
      rep->persist_seconds += persist_watch.ElapsedSeconds();
    }
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("executor.runs")->Increment();
    options_.metrics->GetCounter("executor.rows_in")->Add(rep->rows_in);
    options_.metrics->GetCounter("executor.rows_out")->Add(dataset.NumRows());
    if (const obs::Histogram* h =
            options_.metrics->FindHistogram("executor.unit_seconds");
        h != nullptr) {
      rep->unit_seconds_p50 = h->Quantile(0.50);
      rep->unit_seconds_p95 = h->Quantile(0.95);
      rep->unit_seconds_p99 = h->Quantile(0.99);
    }
  }
  introspect::Heartbeat();

  rep->rows_out = dataset.NumRows();
  rep->total_seconds = total_watch.ElapsedSeconds();
  return dataset;
}

}  // namespace dj::core
