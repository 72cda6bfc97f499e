#ifndef DJ_CORE_EXECUTOR_H_
#define DJ_CORE_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cache_manager.h"
#include "core/checkpoint.h"
#include "core/fusion.h"
#include "core/recipe.h"
#include "core/tracer.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"

namespace dj::core {

/// Instantiates the recipe's OP list from the registry.
Result<std::vector<std::unique_ptr<ops::Op>>> BuildOps(
    const Recipe& recipe, const ops::OpRegistry& registry);

/// One member of a filter stage, as the stage ran it.
struct StageMember {
  std::string name;
  size_t rejected = 0;  ///< rows this member dropped
};

/// Per-OP execution record (feeds reports, benches, and the Tracer summary).
struct OpReport {
  std::string name;
  std::string kind;
  size_t rows_in = 0;
  size_t rows_out = 0;
  double seconds = 0;
  bool cache_hit = false;
  /// Fraction of profiler samples attributed to this OP (obs::Profiler
  /// OpCpuShares), filled by the driver when a profiler ran alongside the
  /// run; -1 = no profile available. Unlike `seconds` (wall time of the
  /// unit), this measures where worker CPU actually went, so an OP that
  /// parallelizes badly shows high %time but low %cpu.
  double cpu_share = -1;
  /// For a filter stage that ran: its members in recipe order, each with
  /// the rows it rejected (these sum to rows_in - rows_out).
  /// Empty for every other unit, and for a stage loaded from the cache.
  std::vector<StageMember> stage;
};

struct RunReport {
  std::vector<OpReport> op_reports;
  double total_seconds = 0;
  size_t rows_in = 0;
  size_t rows_out = 0;
  size_t cache_hits = 0;
  /// Checkpoints were on and the run restored a stored prefix (from a
  /// cache entry or a checkpoint entry).
  bool resumed_from_checkpoint = false;
  /// Always 0: stages keep recipe order, so a plan has no swaps. Kept
  /// only because bench_e2e reports it as core.plan_swaps.
  size_t plan_swaps = 0;
  /// Unit wall-time quantiles from the "executor.unit_seconds" histogram
  /// (bucket-interpolated, so resolution is bucket width); -1 when no
  /// metrics registry was attached.
  double unit_seconds_p50 = -1;
  double unit_seconds_p95 = -1;
  double unit_seconds_p99 = -1;
  /// Time spent persisting unit boundaries outside the OP rows: the one
  /// DJDS serialization per boundary plus the cache stores and checkpoint
  /// saves it fed. 0 when neither the cache nor checkpoints are on.
  double persist_seconds = 0;
  size_t cache_stores = 0;
  size_t checkpoint_saves = 0;

  std::string ToString() const;
};

/// Executes an OP pipeline over a dataset with the paper's Sec. 7
/// optimizations: filter stages (one short-circuit pass per run of filters,
/// sharing per-sample contexts), per-OP caching (config-hash keyed,
/// optionally compressed), and checkpoint-based failure recovery.
class Executor {
 public:
  struct Options {
    int num_workers = 1;

    /// Non-empty turns the per-OP cache on: every unit boundary is stored.
    std::string cache_dir;
    bool cache_compression = false;
    /// Stable id of the input dataset for cache keys (e.g. its path).
    std::string dataset_source_id = "in-memory";

    /// Non-empty turns checkpoints on: a unit boundary the cache did not
    /// store becomes the latest checkpoint.
    std::string checkpoint_dir;

    Tracer* tracer = nullptr;  ///< not owned; may be null

    /// Observability sinks (not owned; may be null — the hot path then
    /// degrades to a pointer check). Metrics get per-OP rows_in/rows_out
    /// counters, rows_per_sec gauges, a unit-seconds histogram, and (via
    /// CacheManager) cache hit/miss/byte counters; spans get one lane per
    /// worker thread with per-unit and per-batch complete events.
    obs::MetricsRegistry* metrics = nullptr;
    obs::SpanRecorder* spans = nullptr;
  };

  /// Builds the worker pool, `num_workers` wide (at least 1), that every
  /// Run and the caller's import and export share.
  explicit Executor(Options options);

  /// Convenience: options derived from a recipe.
  static Options OptionsFromRecipe(const Recipe& recipe);

  /// The executor's pool, lent for work around a run (dataset import and
  /// export); it lives as long as the executor.
  ThreadPool* pool() { return &pool_; }

  /// Runs `ops` over `dataset` and returns the processed dataset.
  /// On failure with the cache or checkpoints on, the state before the
  /// failing OP has been persisted; a subsequent Run with the same options
  /// resumes after the deepest stored prefix.
  Result<data::Dataset> Run(data::Dataset dataset,
                            const std::vector<std::unique_ptr<ops::Op>>& ops,
                            RunReport* report = nullptr);

  /// Raw-pointer overload for borrowed OP subranges.
  Result<data::Dataset> Run(data::Dataset dataset,
                            const std::vector<ops::Op*>& ops,
                            RunReport* report = nullptr);

 private:
  Status RunUnit(const PlanUnit& unit, data::Dataset* dataset,
                 OpReport* report);
  Status RunMapper(ops::Mapper* mapper, data::Dataset* dataset);
  /// Runs `filters` (one, or a stage's members in recipe order) in one pass:
  /// each row goes through them one at a time and stops at the first
  /// rejection. `stage` (optional) receives each member's rejected rows.
  Status RunFilters(const std::vector<ops::Filter*>& filters,
                    data::Dataset* dataset, std::vector<StageMember>* stage);
  Status RunDeduplicator(ops::Deduplicator* dedup, data::Dataset* dataset);

  Options options_;
  ThreadPool pool_;
};

}  // namespace dj::core

#endif  // DJ_CORE_EXECUTOR_H_
