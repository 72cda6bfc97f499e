#include "dist/distributed_executor.h"

#include <algorithm>
#include <optional>

#include "common/random.h"
#include "common/probe.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace dj::dist {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Modelled single-worker cost of running one OP over one byte of shard
/// data (Dataset::ApproxMemoryBytes). Calibrated to the measured
/// single-thread shard time of the bench_fig10_scalability pipeline in a
/// Release build on a 4-vCPU x86-64 host (1.0-1.3e-8 s over three runs).
/// Charging compute from this deterministic work measure, not from wall
/// time, makes the modelled timeline a pure function of the data, the plan
/// and ClusterOptions: sanitizers and schedule perturbation slow the host
/// but not the model.
constexpr double kComputeSecondsPerByteOp = 1.2e-8;

/// Modelled compute seconds of `num_ops` OPs over `data` on one node.
double ModeledCompute(const data::Dataset& data, size_t num_ops,
                      double node_speedup) {
  return static_cast<double>(data.ApproxMemoryBytes()) *
         static_cast<double>(num_ops) * kComputeSecondsPerByteOp /
         node_speedup;
}

/// Splits a pipeline into alternating segments of row-local OPs
/// (Mappers/Filters — embarrassingly parallel across shards) and
/// dataset-level OPs (Deduplicators — require a global view / shuffle).
struct Segment {
  std::vector<ops::Op*> row_local;
  ops::Op* global = nullptr;  // a deduplicator
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

std::vector<data::Dataset> Shard(const data::Dataset& ds, size_t n,
                                 ThreadPool* pool) {
  if (n == 0) n = 1;
  std::vector<data::Dataset> shards(n);
  size_t rows = ds.NumRows();
  size_t per = (rows + n - 1) / std::max<size_t>(n, 1);
  // Slices are independent row-range copies, so they cut in parallel; the
  // shard boundaries depend only on (rows, n), never on the pool.
  auto slice_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      size_t lo = std::min(i * per, rows);
      size_t hi = std::min(lo + per, rows);
      shards[i] = ds.Slice(lo, hi);
    }
  };
  ParallelFor(pool, n, slice_range);
  DJ_SCHED_POINT("dist.shard.gather");
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

DistributedExecutor::DistributedExecutor(Options options)
    : options_(options) {}

Result<data::Dataset> DistributedExecutor::Run(
    data::Dataset dataset, const std::vector<std::unique_ptr<ops::Op>>& ops,
    DistributedReport* report) {
  const ClusterOptions& cluster = options_.cluster;
  size_t nodes = std::max<size_t>(cluster.num_nodes, 1);
  bool distributed = options_.backend != Backend::kSingleNode;
  if (!distributed) nodes = 1;

  DistributedReport local;
  DistributedReport* rep = report != nullptr ? report : &local;
  rep->backend = BackendName(options_.backend);
  rep->num_nodes = nodes;
  rep->rows_in = dataset.NumRows();
  rep->input_bytes = dataset.ApproxMemoryBytes();

  double input_mib = static_cast<double>(rep->input_bytes) / kMiB;
  double node_speedup =
      EffectiveSpeedup(cluster.workers_per_node, cluster.parallel_efficiency);

  // Failure model: one RNG for the whole run, consumed in shard order, so a
  // seed fully determines which attempts die (single-node runs have no
  // worker loss to model).
  std::optional<Rng> failure_rng;
  if (distributed && cluster.node_failure_probability > 0) {
    failure_rng.emplace(cluster.failure_seed);
  }

  // Modeled-timeline emission: `cursor` advances in modeled seconds from
  // `base_ts`; every lane event is placed on that clock, so the exported
  // trace shows the simulated cluster schedule, not local wall time.
  const uint64_t base_ts =
      options_.spans != nullptr ? options_.spans->NowMicros() : 0;
  double cursor = 0;
  // Lane span names are assembled per shard/segment; the families are:
  // srclint-declare(span): sched:*
  // srclint-declare(span): load:*
  // srclint-declare(span): seg*
  // srclint-declare(span): backoff:*
  auto emit_lane = [&](const std::string& name, int64_t lane, double start_s,
                       double dur_s) {
    if (options_.spans == nullptr) return;
    options_.spans->EmitCompleteOnLane(
        name, "dist", base_ts + static_cast<uint64_t>(start_s * 1e6),
        static_cast<uint64_t>(dur_s * 1e6), lane);
  };

  // --- Modeled data loading ---------------------------------------------
  switch (options_.backend) {
    case Backend::kSingleNode:
      // Node-local disk read, one stream (no NAS hop).
      rep->load_seconds = input_mib * cluster.local_load_seconds_per_mib;
      break;
    case Backend::kRay:
      // Every node pulls its own shard from shared storage concurrently.
      rep->load_seconds = (input_mib / static_cast<double>(nodes)) *
                          cluster.load_seconds_per_mib;
      break;
    case Backend::kBeam:
      // The paper's measured bottleneck: the Beam loading component is a
      // serial driver-side stage — it does not shrink with nodes.
      rep->load_seconds = input_mib * cluster.load_seconds_per_mib;
      break;
  }
  if (distributed) {
    rep->overhead_seconds =
        cluster.scheduling_overhead_seconds * static_cast<double>(nodes);
    emit_lane("sched:" + std::string(rep->backend), kDriverLane, cursor,
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
    emit_lane("load:" + std::string(rep->backend), kDriverLane, cursor,
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
  std::vector<data::Dataset> shards = Shard(dataset, nodes,
                                            options_.io_pool);
  dataset = data::Dataset();  // released; state lives in shards

  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const Segment& segment = segments[seg];
    const std::string seg_tag = "seg" + std::to_string(seg);
    if (segment.global == nullptr) {
      // Row-local segment: every node processes its shard independently.
      // Under the failure model, a shard task may die (probability drawn
      // from the seeded RNG per attempt); the dead attempt's partial work
      // and an exponential backoff are charged to the modeled timeline,
      // and the task is requeued onto the next surviving node's lane. The
      // real computation below still runs exactly once per shard.
      double slowest_node = 0;
      for (size_t n = 0; n < shards.size(); ++n) {
        data::Dataset& shard = shards[n];
        double modeled =
            ModeledCompute(shard, segment.row_local.size(), node_speedup);
        Stopwatch watch;
        auto processed =
            shard_executor.Run(std::move(shard), segment.row_local, nullptr);
        if (!processed.ok()) return processed.status();
        shard = std::move(processed).value();
        rep->measured_compute_seconds += watch.ElapsedSeconds();

        double shard_start = 0;  // offset of this task's final attempt
        int64_t lane = kDriverLane + 1 + static_cast<int64_t>(n);
        if (distributed && failure_rng.has_value()) {
          int attempt = 0;
          while (failure_rng->Bernoulli(cluster.node_failure_probability)) {
            if (attempt >= cluster.max_retries_per_shard) {
              return Status::Aborted(
                  "dist: shard " + std::to_string(n) + " of segment " +
                  seg_tag + " failed after " + std::to_string(attempt + 1) +
                  " attempts (node_failure_probability=" +
                  std::to_string(cluster.node_failure_probability) + ")");
            }
            // The attempt dies partway through its work; the partition is
            // requeued on the next node's lane after an exponential
            // backoff.
            double died_after = modeled * 0.5;
            emit_lane(seg_tag + ":shard" + std::to_string(n) + ":died",
                      lane, cursor + shard_start, died_after);
            double backoff = cluster.retry_backoff_seconds *
                             static_cast<double>(uint64_t{1} << attempt);
            shard_start += died_after;
            lane = kDriverLane + 1 +
                   static_cast<int64_t>((n + 1 + static_cast<size_t>(attempt)) %
                                        nodes);
            emit_lane("backoff:shard" + std::to_string(n), lane,
                      cursor + shard_start, backoff);
            shard_start += backoff;
            ++attempt;
            ++rep->node_failures;
            ++rep->retries;
            rep->backoff_seconds += backoff;
          }
        }
        emit_lane(seg_tag + ":ops", lane, cursor + shard_start, modeled);
        slowest_node = std::max(slowest_node, shard_start + modeled);
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
        double shuffle = current_mib * cluster.network_seconds_per_mib;
        rep->shuffle_seconds += shuffle;
        emit_lane(seg_tag + ":shuffle", kDriverLane, cursor, shuffle);
        cursor += shuffle;
      }
      data::Dataset merged = Merge(&shards);
      std::vector<ops::Op*> single{segment.global};
      double modeled = ModeledCompute(merged, 1, node_speedup);
      Stopwatch watch;
      auto processed = shard_executor.Run(std::move(merged), single, nullptr);
      if (!processed.ok()) return processed.status();
      rep->measured_compute_seconds += watch.ElapsedSeconds();
      rep->compute_seconds += modeled;
      emit_lane(seg_tag + ":" + segment.global->name(), kDriverLane, cursor,
                modeled);
      cursor += modeled;
      shards = Shard(processed.value(), nodes, options_.io_pool);
    }
  }

  data::Dataset result = Merge(&shards);
  rep->rows_out = result.NumRows();
  rep->total_seconds = rep->load_seconds + rep->compute_seconds +
                       rep->shuffle_seconds + rep->overhead_seconds;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m->GetCounter("dist.runs")->Increment();
    m->GetCounter("dist.shards_processed")->Add(nodes);
    m->GetGauge("dist.load_seconds")->Set(rep->load_seconds);
    m->GetGauge("dist.compute_seconds")->Set(rep->compute_seconds);
    m->GetGauge("dist.shuffle_seconds")->Set(rep->shuffle_seconds);
    m->GetGauge("dist.overhead_seconds")->Set(rep->overhead_seconds);
    m->GetGauge("dist.total_seconds")->Set(rep->total_seconds);
    if (rep->node_failures > 0 || rep->retries > 0) {
      m->GetCounter("dist.node_failures")->Add(rep->node_failures);
      m->GetCounter("dist.retries")->Add(rep->retries);
      m->GetGauge("dist.backoff_seconds")->Set(rep->backoff_seconds);
    }
  }
  return result;
}

}  // namespace dj::dist
