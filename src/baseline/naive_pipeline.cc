#include "baseline/naive_pipeline.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace dj::baseline {
namespace {

uint64_t SamplesBytes(const std::vector<data::Sample>& samples) {
  uint64_t total = 0;
  for (const data::Sample& s : samples) {
    total += data::ApproxValueBytes(json::Value(s.fields()));
  }
  return total;
}

/// Runs one row-local OP on a single sample by round-tripping it through a
/// one-row table (the per-record conversion overhead of script pipelines).
Status ApplyRowOp(ops::Op* op, data::Sample* sample) {
  data::Dataset one = data::Dataset::FromSamples({*sample});
  one.EnsureColumn(data::kStatsField);
  data::RowRef row = one.Row(0);
  switch (op->kind()) {
    case ops::OpKind::kMapper: {
      auto* mapper = static_cast<ops::Mapper*>(op);
      DJ_RETURN_IF_ERROR(mapper->ProcessRow(row));
      *sample = one.MaterializeRow(0);
      return Status::Ok();
    }
    case ops::OpKind::kFilter: {
      auto* filter = static_cast<ops::Filter*>(op);
      DJ_RETURN_IF_ERROR(filter->ComputeStats(row, nullptr));
      DJ_ASSIGN_OR_RETURN(bool keep, filter->KeepRow(row));
      if (keep) {
        *sample = one.MaterializeRow(0);
      } else {
        *sample = data::Sample();  // tombstone
      }
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument("not a row-local op");
  }
}

}  // namespace

Result<std::vector<data::Sample>> NaivePipeline::Run(
    std::vector<data::Sample> samples,
    const std::vector<std::unique_ptr<ops::Op>>& ops, Report* report) {
  Stopwatch watch;
  Report local;
  Report* rep = report != nullptr ? report : &local;
  rep->rows_in = samples.size();
  rep->peak_row_bytes = SamplesBytes(samples);

  ThreadPool pool(static_cast<size_t>(std::max(num_workers_, 1)));

  for (const auto& op : ops) {
    if (op->kind() == ops::OpKind::kDeduplicator) {
      // Scripts materialize the whole dataset for dedup passes.
      data::Dataset full = data::Dataset::FromSamples(samples);
      full.EnsureColumn(data::kStatsField);
      auto* dedup = static_cast<ops::Deduplicator*>(op.get());
      auto result = dedup->Deduplicate(std::move(full), &pool, nullptr);
      if (!result.ok()) return result.status();
      samples = result.value().ToSamples();
    } else {
      // Eager stage copy: a fresh output list per OP.
      std::vector<data::Sample> next(samples);  // the per-stage copy
      DJ_RETURN_IF_ERROR(ForEachIndex(&pool, next.size(), [&](size_t i) {
        return ApplyRowOp(op.get(), &next[i]);
      }));
      // Drop tombstones from filters.
      std::vector<data::Sample> survivors;
      survivors.reserve(next.size());
      for (data::Sample& s : next) {
        if (!s.fields().empty()) survivors.push_back(std::move(s));
      }
      // Peak memory: old stage + new stage alive simultaneously.
      rep->peak_row_bytes = std::max(
          rep->peak_row_bytes, SamplesBytes(samples) + SamplesBytes(survivors));
      samples = std::move(survivors);
    }
  }
  rep->rows_out = samples.size();
  rep->seconds = watch.ElapsedSeconds();
  return samples;
}

}  // namespace dj::baseline
