#include <gtest/gtest.h>

#include <set>

#include "core/executor.h"
#include "dist/distributed_executor.h"
#include "json/value.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace dj::dist {
namespace {

std::vector<std::unique_ptr<ops::Op>> Pipeline() {
  core::Recipe recipe =
      core::Recipe::FromString(R"(
process:
  - whitespace_normalization_mapper:
  - clean_links_mapper:
  - text_length_filter:
      min: 20
  - word_num_filter:
      min: 5
  - document_exact_deduplicator:
)")
          .value();
  return core::BuildOps(recipe, ops::OpRegistry::Global()).value();
}

data::Dataset Corpus() {
  workload::CorpusOptions options;
  options.style = workload::Style::kStackExchange;
  options.num_docs = 600;
  options.exact_dup_rate = 0.15;
  options.seed = 33;
  return workload::CorpusGenerator(options).Generate();
}

DistributedReport RunBackend(Backend backend, size_t nodes,
                             data::Dataset* result_out = nullptr) {
  DistributedExecutor executor({backend, nodes});
  auto ops = Pipeline();
  DistributedReport report;
  auto result = executor.Run(Corpus(), ops, &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result_out != nullptr && result.ok()) {
    *result_out = std::move(result).value();
  }
  return report;
}

TEST(DistributedExecutorTest, BackendNames) {
  EXPECT_STREQ(BackendName(Backend::kSingleNode), "data-juicer");
  EXPECT_STREQ(BackendName(Backend::kRay), "dj-on-ray");
  EXPECT_STREQ(BackendName(Backend::kBeam), "dj-on-beam");
}

TEST(DistributedExecutorTest, AllBackendsProduceIdenticalResults) {
  data::Dataset single, ray, beam;
  RunBackend(Backend::kSingleNode, 1, &single);
  RunBackend(Backend::kRay, 4, &ray);
  RunBackend(Backend::kBeam, 4, &beam);
  ASSERT_EQ(single.NumRows(), ray.NumRows());
  ASSERT_EQ(single.NumRows(), beam.NumRows());
  for (size_t i = 0; i < single.NumRows(); ++i) {
    EXPECT_EQ(single.GetTextAt(i), ray.GetTextAt(i));
    EXPECT_EQ(single.GetTextAt(i), beam.GetTextAt(i));
  }
}

TEST(DistributedExecutorTest, MatchesLocalExecutor) {
  core::Executor local{core::Executor::Options{}};
  auto ops = Pipeline();
  auto expected = local.Run(Corpus(), ops, nullptr);
  ASSERT_TRUE(expected.ok());
  data::Dataset distributed;
  RunBackend(Backend::kRay, 8, &distributed);
  EXPECT_EQ(expected.value().NumRows(), distributed.NumRows());
}

TEST(DistributedExecutorTest, RayScalesWithNodes) {
  DistributedReport one = RunBackend(Backend::kRay, 1);
  DistributedReport four = RunBackend(Backend::kRay, 4);
  DistributedReport sixteen = RunBackend(Backend::kRay, 16);
  // Modeled load + compute shrink with nodes (overhead grows slowly), and
  // the total wall-clock drops substantially — the Fig. 10 Ray curve.
  EXPECT_LT(four.load_seconds, one.load_seconds);
  EXPECT_LT(sixteen.load_seconds, four.load_seconds);
  EXPECT_LE(four.compute_seconds, one.compute_seconds * 1.2);
  EXPECT_LT(four.total_seconds, one.total_seconds);
  EXPECT_LT(sixteen.total_seconds, four.total_seconds);
  EXPECT_LT(sixteen.total_seconds, one.total_seconds * 0.7);
}

TEST(DistributedExecutorTest, BeamStaysFlatAndSingleNodeFastestAtOne) {
  DistributedReport single = RunBackend(Backend::kSingleNode, 1);
  DistributedReport ray1 = RunBackend(Backend::kRay, 1);
  DistributedReport beam1 = RunBackend(Backend::kBeam, 1);
  DistributedReport beam16 = RunBackend(Backend::kBeam, 16);
  // Native executor wins the single-server scenario (paper Fig. 10).
  EXPECT_LT(single.total_seconds, ray1.total_seconds);
  EXPECT_LT(single.total_seconds, beam1.total_seconds);
  // Beam's serial loading keeps its total nearly flat.
  EXPECT_GT(beam16.total_seconds, beam1.total_seconds * 0.7);
}

TEST(DistributedExecutorTest, BeamLoadDoesNotShrink) {
  DistributedReport one = RunBackend(Backend::kBeam, 1);
  DistributedReport sixteen = RunBackend(Backend::kBeam, 16);
  EXPECT_DOUBLE_EQ(one.load_seconds, sixteen.load_seconds);
}

TEST(DistributedExecutorTest, SingleNodeHasNoClusterOverhead) {
  DistributedReport report = RunBackend(Backend::kSingleNode, 8);
  EXPECT_EQ(report.num_nodes, 1u);  // nodes forced to 1
  EXPECT_DOUBLE_EQ(report.overhead_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.shuffle_seconds, 0.0);
}

TEST(DistributedExecutorTest, ShuffleChargedForGlobalOps) {
  DistributedReport report = RunBackend(Backend::kRay, 4);
  EXPECT_GT(report.shuffle_seconds, 0.0);  // the dedup forces a shuffle
}

TEST(DistributedExecutorTest, ReportRenders) {
  DistributedReport report = RunBackend(Backend::kRay, 2);
  std::string s = report.ToString();
  EXPECT_NE(s.find("dj-on-ray"), std::string::npos);
  EXPECT_NE(s.find("nodes=2"), std::string::npos);
}

TEST(DistributedExecutorTest, PipelineWithoutDedupHasNoShuffle) {
  DistributedExecutor executor({Backend::kRay, 4});
  core::Recipe recipe =
      core::Recipe::FromString(
          "process:\n  - lower_case_mapper:\n")
          .value();
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global()).value();
  DistributedReport report;
  ASSERT_TRUE(executor.Run(Corpus(), ops, &report).ok());
  EXPECT_DOUBLE_EQ(report.shuffle_seconds, 0.0);
}

// The modeled timeline is a pure function of the data, the plan and the
// backend, so these values hold bit-for-bit on any host, under sanitizers,
// scalar kernels and schedule perturbation. They pin the cost model's
// rates: a changed constant moves at least one of them.
TEST(DistributedExecutorTest, ModeledSecondsArePinned) {
  struct Pinned {
    Backend backend;
    size_t nodes;
    double load, compute, shuffle, overhead, total;
  };
  const Pinned kPinned[] = {
      {Backend::kSingleNode, 1, 0.40769538879394535, 0.018725446501669706, 0,
       0, 0.42642083529561503},
      {Backend::kRay, 1, 2.0384769439697266, 0.018725446501669706, 0, 0.02,
       2.0772023904713963},
      {Backend::kRay, 4, 0.50961923599243164, 0.0076832894974818277,
       0.055287313461303715, 0.080000000000000002, 0.65258983895121714},
      {Backend::kRay, 16, 0.12740480899810791, 0.0049384609938361527,
       0.05540919303894043, 0.32000000000000001, 0.5077524630308845},
      {Backend::kBeam, 4, 2.0384769439697266, 0.0076832894974818277,
       0.055287313461303715, 0.080000000000000002, 2.1814475469285122},
  };
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(std::string(BackendName(p.backend)) + " x" +
                 std::to_string(p.nodes));
    DistributedReport report = RunBackend(p.backend, p.nodes);
    EXPECT_DOUBLE_EQ(report.load_seconds, p.load);
    EXPECT_DOUBLE_EQ(report.compute_seconds, p.compute);
    EXPECT_DOUBLE_EQ(report.shuffle_seconds, p.shuffle);
    EXPECT_DOUBLE_EQ(report.overhead_seconds, p.overhead);
    EXPECT_DOUBLE_EQ(report.total_seconds, p.total);
  }
}

TEST(DistributedExecutorTest, TraceDrawsShardLanesAndSetsMetrics) {
  // The run emits to the installed global sinks, the same ones the OPs'
  // own spans reach.
  obs::SpanRecorder spans;
  obs::MetricsRegistry metrics;
  obs::InstallGlobalRecorder(&spans);
  obs::InstallGlobalMetrics(&metrics);
  DistributedExecutor executor({Backend::kRay, 3});
  auto ops = Pipeline();
  DistributedReport report;
  bool ok = executor.Run(Corpus(), ops, &report).ok();
  obs::InstallGlobalRecorder(nullptr);
  obs::InstallGlobalMetrics(nullptr);
  ASSERT_TRUE(ok);

  // Ray loads in parallel: each of the 3 shards gets its own lane at or
  // above the driver lane, so Perfetto shows the cluster schedule, and the
  // dedup's own phase lands in the same trace.
  json::Value trace = spans.ToJson();
  const json::Value* events = trace.as_object().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<int64_t> lanes;
  size_t dedup_spans = 0;
  for (const json::Value& e : events->as_array()) {
    int64_t tid = e.as_object().Find("tid")->as_int();
    if (tid >= DistributedExecutor::kDriverLane) lanes.insert(tid);
    if (e.as_object().Find("name")->as_string() ==
        "exact_dedup.compute_hashes") {
      ++dedup_spans;
    }
  }
  EXPECT_GE(lanes.size(), 3u);
  EXPECT_EQ(dedup_spans, 1u);

  EXPECT_EQ(metrics.FindCounter("dist.runs")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("dist.shards_processed")->value(), 3u);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("dist.total_seconds")->value(),
                   report.total_seconds);
}

}  // namespace
}  // namespace dj::dist
