// Appendix A.2 reproduction: measured cache-mode disk usage vs the paper's
// closed-form model
//
//   Space[cache]      = (1 + M + F + 1{F>0} + D) * S
//   Space[checkpoint] = 3 * S   (peak; two live cache sets + original)
//
// The paper stores one cache set per OP, plus the original dataset and,
// when there are filters, a stats set. This executor stores one file per
// plan unit plus the loaded dataset, 1 + PlanFusion(ops).size() sets: a
// run of two or more consecutive filters is one stage unit, which stores
// one entry with its stats. We sweep pipeline compositions and print the
// paper's set count, the executor's count and the measured file count
// (which equals the executor's), then the bytes: the paper's prediction,
// the measured total, and its ratio to (1 + units) * S. Exact byte
// equality is not expected (filters shrink the dataset mid-pipeline; S is
// the input size).

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/cache_manager.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "core/space_model.h"
#include "data/io.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace {

using dj::bench::Fmt;

struct Shape {
  const char* name;
  const char* recipe;
  size_t mappers;
  size_t filters;
  size_t dedups;
};

constexpr Shape kShapes[] = {
    {"M=2 F=0 D=0",
     "process:\n  - lower_case_mapper:\n  - whitespace_normalization_mapper:\n",
     2, 0, 0},
    {"M=1 F=2 D=0",
     "process:\n  - lower_case_mapper:\n  - text_length_filter:\n"
     "      min: 1\n  - word_num_filter:\n      min: 1\n",
     1, 2, 0},
    {"M=2 F=3 D=1",
     "process:\n  - lower_case_mapper:\n  - fix_unicode_mapper:\n"
     "  - text_length_filter:\n      min: 1\n"
     "  - word_num_filter:\n      min: 1\n"
     "  - alphanumeric_filter:\n      min: 0.0\n"
     "  - document_exact_deduplicator:\n",
     2, 3, 1},
    {"M=0 F=0 D=1", "process:\n  - document_exact_deduplicator:\n", 0, 0, 1},
};

}  // namespace

int main() {
  dj::bench::Banner(
      "Appendix A.2: cache/checkpoint space usage vs the model",
      "Space[cache] = (1+M+F+1{F>0}+D)*S ; Space[checkpoint] peak = 3*S");

  dj::workload::CorpusOptions corpus;
  corpus.num_docs = 150;
  corpus.seed = 70;
  dj::data::Dataset data =
      dj::workload::CorpusGenerator(corpus).Generate();
  uint64_t dataset_bytes = dj::data::SerializeDataset(data).size();
  // +1 cache set for the loaded original dataset, exactly as the model's
  // leading 1 term: store it explicitly like the unified loader does.
  std::printf("input dataset: %zu rows, S = %s serialized\n", data.NumRows(),
              dj::FormatBytes(dataset_bytes).c_str());

  dj::bench::Table table({"pipeline", "paper_sets", "executor_sets",
                          "measured_sets", "paper_bytes", "measured_bytes",
                          "ratio_to_executor"});
  size_t cached_ckpt_files = 0;  // checkpoint files beside the cache
  size_t ckpt_files = 0;         // checkpoint files without the cache
  uint64_t ckpt_bytes = 0;       // the largest of those
  for (const Shape& shape : kShapes) {
    std::string dir =
        std::filesystem::temp_directory_path().string() +
        "/dj_space_bench_" + std::to_string(shape.mappers) + "_" +
        std::to_string(shape.filters) + "_" + std::to_string(shape.dedups);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto recipe = dj::core::Recipe::FromString(shape.recipe);
    auto ops =
        dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global());

    dj::core::Executor::Options options;
    options.cache_dir = dir;
    // Checkpoints ride along in a subdirectory (not counted as a cache set
    // below): the cache stores every boundary, so they write nothing.
    options.checkpoint_dir = dir + "/ckpt";
    dj::core::Executor executor(options);

    // Cache the original dataset (the model's leading "1" term).
    dj::core::CacheManager cache(dir, false);
    cache.Store(dj::core::CacheManager::InitialKey(data),
                dj::data::SerializeDataset(data));
    auto result = executor.Run(data, ops.value(), nullptr);
    if (!result.ok()) return 1;

    size_t measured_sets = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) ++measured_sets;
    }
    uint64_t measured_bytes = cache.TotalBytes();
    std::error_code ec;
    cached_ckpt_files += static_cast<size_t>(std::distance(
        std::filesystem::directory_iterator(options.checkpoint_dir, ec),
        std::filesystem::directory_iterator()));

    // The same pipeline with checkpoints alone keeps the newest boundary.
    dj::core::Executor::Options alone;
    alone.checkpoint_dir = dir + "/ckpt_alone";
    if (!dj::core::Executor(alone).Run(data, ops.value(), nullptr).ok()) {
      return 1;
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(alone.checkpoint_dir)) {
      ++ckpt_files;
      ckpt_bytes = std::max<uint64_t>(ckpt_bytes, entry.file_size());
    }

    dj::core::PipelineShape pipeline_shape{shape.mappers, shape.filters,
                                           shape.dedups};
    uint64_t model_bytes =
        dj::core::CacheModeSpaceBytes(pipeline_shape, dataset_bytes);
    // The paper's set count, 1 + M + F + 1{F>0} + D, beside this
    // executor's: the loaded dataset plus one entry per plan unit.
    size_t paper_sets = 1 + shape.mappers + shape.filters +
                        (shape.filters > 0 ? 1 : 0) + shape.dedups;
    size_t executor_sets = 1 + dj::core::PlanFusion(ops.value()).size();
    table.Row({shape.name, std::to_string(paper_sets),
               std::to_string(executor_sets), std::to_string(measured_sets),
               dj::FormatBytes(model_bytes), dj::FormatBytes(measured_bytes),
               Fmt(static_cast<double>(measured_bytes) /
                       static_cast<double>(executor_sets * dataset_bytes),
                   3)});
  }
  table.Print();

  std::printf(
      "\ncheckpoint mode: model predicts peak = 3*S = %s. A checkpoint is\n"
      "the newest stored boundary: beside the cache, which stores every\n"
      "boundary, the %zu runs above left %zu checkpoint file(s). With\n"
      "checkpoints alone the same %zu runs left %zu, one entry each, none\n"
      "larger than %s (S = %s).\n",
      dj::FormatBytes(dj::core::CheckpointModeSpaceBytes(dataset_bytes))
          .c_str(),
      std::size(kShapes), cached_ckpt_files, std::size(kShapes), ckpt_files,
      dj::FormatBytes(ckpt_bytes).c_str(),
      dj::FormatBytes(dataset_bytes).c_str());
  std::printf(
      "expected shape: measured set counts equal the executor's 1 + units\n"
      "exactly. With no filter that is the paper's count too; for F filters\n"
      "the paper adds F + 1 sets (one each and a stats set) where the\n"
      "executor stores one per filter unit, stats included, and a stage of\n"
      "adjacent filters is one unit. Ratios to (1 + units) * S\n"
      "stay near 1 — slightly below when filters/dedups shrink the dataset\n"
      "mid-pipeline, slightly above when stats/hashes add columns — under\n"
      "the paper's assumption 'sizes of cache data ... all the same as the\n"
      "input'.\n");
  return 0;
}
