#ifndef DJ_DIST_DISTRIBUTED_EXECUTOR_H_
#define DJ_DIST_DISTRIBUTED_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/executor.h"
#include "data/dataset.h"
#include "dist/cluster.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/op_base.h"

namespace dj::dist {

/// Distributed backends (paper Sec. 7 "Optimized Scalability" / Fig. 10).
///
///  kSingleNode — the native executor: local load, no cluster overhead.
///  kRay        — Ray-style: every node loads & processes its own shard in
///                parallel; dataset-level OPs (Deduplicators) shuffle to the
///                driver. Scales with nodes.
///  kBeam       — Beam+Flink-style as measured in the paper: the data
///                loading component is driver-side and serial, so added
///                nodes only parallelize compute; loading dominates and the
///                total stays flat (the paper's observed bottleneck).
enum class Backend { kSingleNode, kRay, kBeam };

const char* BackendName(Backend backend);

/// Runs an OP pipeline over a dataset on a simulated cluster. Processing is
/// real (sharded through core::Executor, identical results to single-node);
/// the cluster wall-clock is modeled per ClusterOptions — see cluster.h.
class DistributedExecutor {
 public:
  struct Options {
    Backend backend = Backend::kSingleNode;
    ClusterOptions cluster;

    /// Observability sinks (not owned; may be null). The span recorder gets
    /// the *modeled* cluster timeline — one lane per simulated node plus a
    /// driver lane — so the Fig. 10 Ray-vs-Beam shape (parallel vs serial
    /// loading, shuffle barriers) is visible in chrome://tracing. Lane ids
    /// start at kDriverLane to stay clear of real thread lanes.
    obs::SpanRecorder* spans = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Trace lane of the modeled driver; node i uses kDriverLane + 1 + i.
  static constexpr int64_t kDriverLane = 100;

  explicit DistributedExecutor(Options options);

  Result<data::Dataset> Run(data::Dataset dataset,
                            const std::vector<std::unique_ptr<ops::Op>>& ops,
                            DistributedReport* report);

 private:
  Options options_;
};

}  // namespace dj::dist

#endif  // DJ_DIST_DISTRIBUTED_EXECUTOR_H_
