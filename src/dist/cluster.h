#ifndef DJ_DIST_CLUSTER_H_
#define DJ_DIST_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dj::dist {

/// Cost model of a simulated cluster. Real clusters are unavailable in this
/// environment, so the distributed executors *actually process* the data on
/// this machine (sharded, so results are bit-identical to a cluster run)
/// and *model* the cluster wall-clock from these parameters plus a
/// deterministic per-shard work measure (shard bytes x OPs in the segment,
/// calibrated to Release single-thread time), never from measured time: the
/// same data, plan and options give the same modelled seconds on any host,
/// under sanitizers or schedule perturbation alike. With the defaults,
/// bench_fig10_scalability shows DJ-on-Ray ~85% faster at 16 nodes than at
/// 1, DJ-on-Beam flat (its serial loading dominates), and the native
/// executor fastest at 1 node. The parameters default to NAS/20Gbps-class
/// values scaled to the synthetic corpus sizes (paper Appendix B.3.4).
struct ClusterOptions {
  size_t num_nodes = 1;
  int workers_per_node = 4;

  /// Per-MiB cost of loading input data from shared (NAS) storage. The
  /// paper's corpora are 65-140GB where loading dominates; scaling the
  /// per-MiB rate up reproduces that regime on MiB-sized synthetic data.
  double load_seconds_per_mib = 2.0;
  /// Per-MiB cost of loading from node-local disk (single-node executor).
  double local_load_seconds_per_mib = 0.4;
  /// Per-MiB cost of moving data across the network (shuffles, broadcasts).
  double network_seconds_per_mib = 0.05;
  /// Fixed orchestration cost per node per stage (task scheduling, worker
  /// startup).
  double scheduling_overhead_seconds = 0.02;
  /// Intra-node parallel efficiency: effective speedup of w workers is
  /// w^efficiency (1.0 = perfect scaling).
  double parallel_efficiency = 0.9;

  /// Failure model (paper Sec. 5.1.1 recovery on clusters where worker
  /// loss is routine). Each attempt of a row-local shard task dies with
  /// this probability, drawn from a deterministic RNG seeded by
  /// `failure_seed` — so a seed fully determines which attempts fail, how
  /// many retries a run needs, and the modeled timeline. 0 disables the
  /// failure model. Processing itself is exactly-once regardless: only the
  /// modeled schedule shows the deaths, backoffs, and requeues.
  double node_failure_probability = 0.0;
  uint64_t failure_seed = 42;
  /// Retries allowed per shard task before the run is abandoned. Each
  /// retry is requeued onto the next surviving node's lane after an
  /// exponential backoff of retry_backoff_seconds * 2^attempt.
  int max_retries_per_shard = 3;
  double retry_backoff_seconds = 0.5;
};

/// Modeled + measured timing of a distributed run.
struct DistributedReport {
  std::string backend;
  size_t num_nodes = 0;
  size_t rows_in = 0;
  size_t rows_out = 0;
  uint64_t input_bytes = 0;

  double load_seconds = 0;      ///< modeled data loading time
  double compute_seconds = 0;   ///< modeled parallel compute time
  double shuffle_seconds = 0;   ///< modeled network/shuffle time
  double overhead_seconds = 0;  ///< modeled scheduling overhead
  double total_seconds = 0;     ///< modeled wall-clock

  /// Real local single-thread shard time; report-only, the model above
  /// never reads it.
  double measured_compute_seconds = 0;

  /// Failure-model outcomes (deterministic per ClusterOptions::failure_seed).
  size_t node_failures = 0;     ///< shard-task attempts that died
  size_t retries = 0;           ///< requeues onto surviving nodes
  double backoff_seconds = 0;   ///< modeled exponential-backoff wait, summed

  std::string ToString() const;
};

/// Effective speedup of `workers` parallel workers under the efficiency
/// model.
double EffectiveSpeedup(int workers, double efficiency);

}  // namespace dj::dist

#endif  // DJ_DIST_CLUSTER_H_
