#ifndef DJ_DIST_DISTRIBUTED_EXECUTOR_H_
#define DJ_DIST_DISTRIBUTED_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
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

  std::string ToString() const;
};

/// Runs an OP pipeline over a dataset on a simulated cluster. Processing is
/// real (sharded through core::Executor, identical results to single-node);
/// the cluster wall-clock is modeled from fixed cost rates — see
/// distributed_executor.cc. The modeled timeline goes to the installed
/// global span recorder (one lane per simulated node plus a driver lane, so
/// the Fig. 10 Ray-vs-Beam shape is visible in chrome://tracing) and its
/// phase breakdown to the installed global metrics registry.
class DistributedExecutor {
 public:
  struct Options {
    Backend backend = Backend::kSingleNode;
    size_t num_nodes = 1;  ///< kSingleNode always runs on one node
  };

  /// Trace lane of the modeled driver; node i uses kDriverLane + 1 + i.
  /// Lane ids start here to stay clear of real thread lanes.
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
