#include "dist/distributed_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stopwatch.h"
#include "core/executor.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::dist {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Cost model of the simulated cluster. The executor *actually processes*
// the data in-process (sharded, so results are bit-identical to a cluster
// run) and *models* the cluster wall-clock from the rates below plus a
// deterministic per-shard work measure (shard bytes x OPs in the segment,
// calibrated to Release single-thread time), never from measured time: the
// same data, plan and backend give the same modelled seconds on any host,
// under sanitizers or schedule perturbation alike. With these rates,
// bench_fig10_scalability shows DJ-on-Ray ~85% faster at 16 nodes than at
// 1, DJ-on-Beam flat (its serial loading dominates), and the native
// executor fastest at 1 node. The rates are NAS/20Gbps-class values scaled
// to the synthetic corpus sizes (paper Appendix B.3.4).

/// Per-MiB cost of loading input data from shared (NAS) storage. The
/// paper's corpora are 65-140GB where loading dominates; scaling the
/// per-MiB rate up reproduces that regime on MiB-sized synthetic data.
constexpr double kLoadSecondsPerMiB = 2.0;
/// Per-MiB cost of loading from node-local disk (single-node executor).
constexpr double kLocalLoadSecondsPerMiB = 0.4;
/// Per-MiB cost of moving data across the network (shuffles, broadcasts).
constexpr double kNetworkSecondsPerMiB = 0.05;
/// Fixed orchestration cost per node per stage (task scheduling, worker
/// startup).
constexpr double kSchedulingOverheadSeconds = 0.02;
/// Effective speedup of one node's 4 workers: w workers at intra-node
/// parallel efficiency e run w^e times as fast as one (e = 1.0 would be
/// perfect scaling; 0.9 is charged).
const double kNodeSpeedup = std::pow(4.0, 0.9);

/// Modelled single-worker cost of running one OP over one byte of shard
/// data (Dataset::ApproxMemoryBytes). Calibrated to the measured
/// single-thread shard time of the bench_fig10_scalability pipeline in a
/// Release build on a 4-vCPU x86-64 host (1.0-1.3e-8 s over three runs).
/// Charging compute from this deterministic work measure, not from wall
/// time, makes the modelled timeline a pure function of the data, the plan
/// and the backend: sanitizers and schedule perturbation slow the host but
/// not the model.
constexpr double kComputeSecondsPerByteOp = 1.2e-8;

/// Modelled compute seconds of `num_ops` OPs over `data` on one node.
double ModeledCompute(const data::Dataset& data, size_t num_ops) {
  return static_cast<double>(data.ApproxMemoryBytes()) *
         static_cast<double>(num_ops) * kComputeSecondsPerByteOp /
         kNodeSpeedup;
}

/// Splits a pipeline into alternating segments of row-local OPs
/// (Mappers/Filters — embarrassingly parallel across shards) and
/// dataset-level OPs (Deduplicators — require a global view / shuffle).
struct Segment {
  std::vector<const ops::Op*> row_local;
  const ops::Op* global = nullptr;  // a deduplicator
};

std::vector<Segment> SplitSegments(
    const std::vector<std::unique_ptr<ops::Op>>& ops) {
  std::vector<Segment> segments;
  Segment current;
  for (const auto& op : ops) {
    if (op->kind() == ops::OpKind::kDeduplicator) {
      if (!current.row_local.empty()) {
        segments.push_back(std::move(current));
        current = Segment();
      }
      Segment global;
      global.global = op.get();
      segments.push_back(std::move(global));
    } else {
      current.row_local.push_back(op.get());
    }
  }
  if (!current.row_local.empty()) segments.push_back(std::move(current));
  return segments;
}

std::vector<data::Dataset> Shard(const data::Dataset& ds, size_t n) {
  if (n == 0) n = 1;
  std::vector<data::Dataset> shards(n);
  size_t rows = ds.NumRows();
  size_t per = (rows + n - 1) / n;
  for (size_t i = 0; i < n; ++i) {
    size_t lo = std::min(i * per, rows);
    shards[i] = ds.Slice(lo, std::min(lo + per, rows));
  }
  return shards;
}

data::Dataset Merge(std::vector<data::Dataset>* shards) {
  data::Dataset out;
  for (data::Dataset& shard : *shards) out.Concat(std::move(shard));
  shards->clear();
  return out;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSingleNode:
      return "data-juicer";
    case Backend::kRay:
      return "dj-on-ray";
    case Backend::kBeam:
      return "dj-on-beam";
  }
  return "unknown";
}

std::string DistributedReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%-12s nodes=%-3zu rows %zu -> %zu  load=%.2fs compute=%.2fs "
      "shuffle=%.2fs overhead=%.2fs  total=%.2fs (measured local %.2fs)",
      backend.c_str(), num_nodes, rows_in, rows_out, load_seconds,
      compute_seconds, shuffle_seconds, overhead_seconds, total_seconds,
      measured_compute_seconds);
  return buf;
}

DistributedExecutor::DistributedExecutor(Options options)
    : options_(options) {}

Result<data::Dataset> DistributedExecutor::Run(
    data::Dataset dataset, const std::vector<std::unique_ptr<ops::Op>>& ops,
    DistributedReport* report) {
  obs::SpanRecorder* const spans = obs::GlobalRecorder();
  obs::MetricsRegistry* const metrics = obs::GlobalMetrics();
  bool distributed = options_.backend != Backend::kSingleNode;
  size_t nodes = distributed ? std::max<size_t>(options_.num_nodes, 1) : 1;

  DistributedReport local;
  DistributedReport* rep = report != nullptr ? report : &local;
  rep->backend = BackendName(options_.backend);
  rep->num_nodes = nodes;
  rep->rows_in = dataset.NumRows();
  rep->input_bytes = dataset.ApproxMemoryBytes();

  double input_mib = static_cast<double>(rep->input_bytes) / kMiB;

  // Modeled-timeline emission: `cursor` advances in modeled seconds from
  // `base_ts`; every lane event is placed on that clock, so the exported
  // trace shows the simulated cluster schedule, not local wall time.
  const uint64_t base_ts = spans != nullptr ? spans->NowMicros() : 0;
  double cursor = 0;
  // Lane span names are assembled per shard/segment; the families are:
  // srclint-declare(span): sched:*
  // srclint-declare(span): load:*
  // srclint-declare(span): seg*
  auto emit_lane = [&](const std::string& name, int64_t lane, double start_s,
                       double dur_s) {
    if (spans == nullptr) return;
    spans->EmitCompleteOnLane(name, "dist",
                              base_ts + static_cast<uint64_t>(start_s * 1e6),
                              static_cast<uint64_t>(dur_s * 1e6), lane);
  };

  // --- Modeled data loading ---------------------------------------------
  switch (options_.backend) {
    case Backend::kSingleNode:
      // Node-local disk read, one stream (no NAS hop).
      rep->load_seconds = input_mib * kLocalLoadSecondsPerMiB;
      break;
    case Backend::kRay:
      // Every node pulls its own shard from shared storage concurrently.
      rep->load_seconds =
          (input_mib / static_cast<double>(nodes)) * kLoadSecondsPerMiB;
      break;
    case Backend::kBeam:
      // The paper's measured bottleneck: the Beam loading component is a
      // serial driver-side stage — it does not shrink with nodes.
      rep->load_seconds = input_mib * kLoadSecondsPerMiB;
      break;
  }
  if (distributed) {
    rep->overhead_seconds =
        kSchedulingOverheadSeconds * static_cast<double>(nodes);
    emit_lane("sched:" + rep->backend, kDriverLane, cursor,
              rep->overhead_seconds);
    cursor += rep->overhead_seconds;
  }
  if (options_.backend == Backend::kRay) {
    // Every node loads its shard concurrently: one lane event per node.
    for (size_t n = 0; n < nodes; ++n) {
      emit_lane("load:shard" + std::to_string(n),
                kDriverLane + 1 + static_cast<int64_t>(n), cursor,
                rep->load_seconds);
    }
  } else {
    // Single-stream (local disk or the serial Beam driver stage).
    emit_lane("load:" + rep->backend, kDriverLane, cursor,
              rep->load_seconds);
  }
  cursor += rep->load_seconds;

  // --- Real processing + modeled compute time ---------------------------
  // The shard executor's wall time is recorded as measured_compute_seconds
  // only; the timeline charges ModeledCompute.
  core::Executor::Options exec_options;
  exec_options.num_workers = 1;  // measure single-thread shard time
  core::Executor shard_executor(exec_options);

  std::vector<Segment> segments = SplitSegments(ops);
  std::vector<data::Dataset> shards = Shard(dataset, nodes);
  dataset = data::Dataset();  // released; state lives in shards

  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const Segment& segment = segments[seg];
    const std::string seg_tag = "seg" + std::to_string(seg);
    if (segment.global == nullptr) {
      // Row-local segment: every node processes its shard independently.
      double slowest_node = 0;
      for (size_t n = 0; n < shards.size(); ++n) {
        data::Dataset& shard = shards[n];
        double modeled = ModeledCompute(shard, segment.row_local.size());
        Stopwatch watch;
        auto processed =
            shard_executor.Run(std::move(shard), segment.row_local, nullptr);
        if (!processed.ok()) return processed.status();
        shard = std::move(processed).value();
        rep->measured_compute_seconds += watch.ElapsedSeconds();
        emit_lane(seg_tag + ":ops", kDriverLane + 1 + static_cast<int64_t>(n),
                  cursor, modeled);
        slowest_node = std::max(slowest_node, modeled);
      }
      rep->compute_seconds += slowest_node;
      cursor += slowest_node;  // barrier: next stage waits for the slowest
    } else {
      // Dataset-level OP: shuffle all shards to the driver, run globally,
      // re-shard. The shuffle cost is paid on the network for distributed
      // backends.
      if (distributed && nodes > 1) {
        double current_mib = 0;
        for (const data::Dataset& shard : shards) {
          current_mib += static_cast<double>(shard.ApproxMemoryBytes()) / kMiB;
        }
        double shuffle = current_mib * kNetworkSecondsPerMiB;
        rep->shuffle_seconds += shuffle;
        emit_lane(seg_tag + ":shuffle", kDriverLane, cursor, shuffle);
        cursor += shuffle;
      }
      data::Dataset merged = Merge(&shards);
      double modeled = ModeledCompute(merged, 1);
      Stopwatch watch;
      auto processed = shard_executor.Run(
          std::move(merged), std::vector<const ops::Op*>{segment.global},
          nullptr);
      if (!processed.ok()) return processed.status();
      rep->measured_compute_seconds += watch.ElapsedSeconds();
      rep->compute_seconds += modeled;
      emit_lane(seg_tag + ":" + segment.global->name(), kDriverLane, cursor,
                modeled);
      cursor += modeled;
      shards = Shard(processed.value(), nodes);
    }
  }

  data::Dataset result = Merge(&shards);
  rep->rows_out = result.NumRows();
  rep->total_seconds = rep->load_seconds + rep->compute_seconds +
                       rep->shuffle_seconds + rep->overhead_seconds;
  if (metrics != nullptr) {
    metrics->GetCounter("dist.runs")->Increment();
    metrics->GetCounter("dist.shards_processed")->Add(nodes);
    metrics->GetGauge("dist.load_seconds")->Set(rep->load_seconds);
    metrics->GetGauge("dist.compute_seconds")->Set(rep->compute_seconds);
    metrics->GetGauge("dist.shuffle_seconds")->Set(rep->shuffle_seconds);
    metrics->GetGauge("dist.overhead_seconds")->Set(rep->overhead_seconds);
    metrics->GetGauge("dist.total_seconds")->Set(rep->total_seconds);
  }
  return result;
}

}  // namespace dj::dist
