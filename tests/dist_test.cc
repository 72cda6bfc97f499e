#include <gtest/gtest.h>

#include <set>

#include "core/executor.h"
#include "dist/cluster.h"
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
  DistributedExecutor::Options options;
  options.backend = backend;
  options.cluster.num_nodes = nodes;
  DistributedExecutor executor(options);
  auto ops = Pipeline();
  DistributedReport report;
  auto result = executor.Run(Corpus(), ops, &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result_out != nullptr && result.ok()) {
    *result_out = std::move(result).value();
  }
  return report;
}

TEST(ClusterTest, EffectiveSpeedupModel) {
  EXPECT_DOUBLE_EQ(EffectiveSpeedup(1, 0.9), 1.0);
  EXPECT_GT(EffectiveSpeedup(4, 0.9), 3.0);
  EXPECT_LT(EffectiveSpeedup(4, 0.9), 4.0);
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
  DistributedExecutor::Options options;
  options.backend = Backend::kRay;
  options.cluster.num_nodes = 4;
  DistributedExecutor executor(options);
  core::Recipe recipe =
      core::Recipe::FromString(
          "process:\n  - lower_case_mapper:\n")
          .value();
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global()).value();
  DistributedReport report;
  ASSERT_TRUE(executor.Run(Corpus(), ops, &report).ok());
  EXPECT_DOUBLE_EQ(report.shuffle_seconds, 0.0);
}

TEST(DistributedExecutorTest, TraceDrawsShardLanesAndSetsMetrics) {
  DistributedExecutor::Options options;
  options.backend = Backend::kRay;
  options.cluster.num_nodes = 3;
  obs::SpanRecorder spans;
  obs::MetricsRegistry metrics;
  options.spans = &spans;
  options.metrics = &metrics;
  DistributedExecutor executor(options);
  auto ops = Pipeline();
  DistributedReport report;
  ASSERT_TRUE(executor.Run(Corpus(), ops, &report).ok());

  // Ray loads in parallel: each of the 3 shards gets its own lane at or
  // above the driver lane, so Perfetto shows the cluster schedule.
  json::Value trace = spans.ToJson();
  const json::Value* events = trace.as_object().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<int64_t> lanes;
  for (const json::Value& e : events->as_array()) {
    int64_t tid = e.as_object().Find("tid")->as_int();
    if (tid >= DistributedExecutor::kDriverLane) lanes.insert(tid);
  }
  EXPECT_GE(lanes.size(), 3u);

  EXPECT_EQ(metrics.FindCounter("dist.runs")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("dist.shards_processed")->value(), 3u);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("dist.total_seconds")->value(),
                   report.total_seconds);
}

// ----------------------------------------------- node-failure recovery ----

DistributedReport RunWithFailures(double failure_p, uint64_t seed,
                                  data::Dataset* result_out = nullptr,
                                  obs::SpanRecorder* spans = nullptr,
                                  obs::MetricsRegistry* metrics = nullptr) {
  DistributedExecutor::Options options;
  options.backend = Backend::kRay;
  options.cluster.num_nodes = 4;
  options.cluster.node_failure_probability = failure_p;
  options.cluster.failure_seed = seed;
  options.spans = spans;
  options.metrics = metrics;
  DistributedExecutor executor(options);
  auto ops = Pipeline();
  DistributedReport report;
  auto result = executor.Run(Corpus(), ops, &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result_out != nullptr && result.ok()) {
    *result_out = std::move(result).value();
  }
  return report;
}

TEST(NodeFailureTest, RetryCountsAreSeedDeterministic) {
  DistributedReport a = RunWithFailures(0.35, 7);
  DistributedReport b = RunWithFailures(0.35, 7);
  EXPECT_GT(a.node_failures, 0u);  // p=0.35 over 4+ attempts: failures occur
  EXPECT_EQ(a.node_failures, b.node_failures);
  EXPECT_EQ(a.retries, b.retries);
  // The whole modelled timeline is a function of data, plan and seed:
  // bit-equal, however slow or perturbed the host is.
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
}

TEST(NodeFailureTest, AllRowsProcessedExactlyOnceDespiteFailures) {
  data::Dataset reliable, flaky;
  DistributedReport clean = RunWithFailures(0.0, 7, &reliable);
  DistributedReport faulty = RunWithFailures(0.4, 7, &flaky);
  EXPECT_EQ(clean.node_failures, 0u);
  EXPECT_GT(faulty.node_failures, 0u);
  ASSERT_EQ(reliable.NumRows(), flaky.NumRows());
  for (size_t i = 0; i < reliable.NumRows(); ++i) {
    EXPECT_EQ(reliable.GetTextAt(i), flaky.GetTextAt(i));
  }
}

TEST(NodeFailureTest, FailuresLengthenTheModeledTimeline) {
  DistributedReport clean = RunWithFailures(0.0, 7);
  DistributedReport faulty = RunWithFailures(0.4, 7);
  // Dead attempts and backoffs push the slowest-shard barrier out.
  EXPECT_GT(faulty.backoff_seconds, 0.0);
  EXPECT_GT(faulty.compute_seconds, clean.compute_seconds);
}

TEST(NodeFailureTest, BackoffAndDeathSpansAppearInModeledTimeline) {
  obs::SpanRecorder spans;
  obs::MetricsRegistry metrics;
  DistributedReport report =
      RunWithFailures(0.4, 7, nullptr, &spans, &metrics);
  ASSERT_GT(report.node_failures, 0u);

  size_t died_spans = 0, backoff_spans = 0;
  json::Value trace = spans.ToJson();
  const json::Value* events = trace.as_object().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const json::Value& e : events->as_array()) {
    const std::string& name = e.as_object().Find("name")->as_string();
    if (name.find(":died") != std::string::npos) {
      ++died_spans;
      EXPECT_GT(e.as_object().Find("dur")->as_int(), 0);
    }
    if (name.rfind("backoff", 0) == 0) {
      ++backoff_spans;
      EXPECT_GT(e.as_object().Find("dur")->as_int(), 0);
    }
  }
  EXPECT_EQ(died_spans, report.node_failures);
  EXPECT_EQ(backoff_spans, report.retries);

  EXPECT_EQ(metrics.FindCounter("dist.node_failures")->value(),
            report.node_failures);
  EXPECT_EQ(metrics.FindCounter("dist.retries")->value(), report.retries);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("dist.backoff_seconds")->value(),
                   report.backoff_seconds);
}

TEST(NodeFailureTest, ReportRendersFailureLine) {
  DistributedReport report = RunWithFailures(0.4, 7);
  ASSERT_GT(report.node_failures, 0u);
  std::string s = report.ToString();
  EXPECT_NE(s.find("node_failures="), std::string::npos) << s;
  EXPECT_NE(s.find("exactly once"), std::string::npos) << s;
}

TEST(NodeFailureTest, ExhaustedRetriesAbortTheRun) {
  DistributedExecutor::Options options;
  options.backend = Backend::kRay;
  options.cluster.num_nodes = 2;
  options.cluster.node_failure_probability = 1.0;  // every attempt dies
  options.cluster.max_retries_per_shard = 2;
  DistributedExecutor executor(options);
  auto ops = Pipeline();
  auto result = executor.Run(Corpus(), ops, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("failed after"),
            std::string::npos)
      << result.status().ToString();
}

TEST(NodeFailureTest, SingleNodeBackendIgnoresFailureModel) {
  DistributedExecutor::Options options;
  options.backend = Backend::kSingleNode;
  options.cluster.node_failure_probability = 1.0;
  DistributedExecutor executor(options);
  auto ops = Pipeline();
  DistributedReport report;
  ASSERT_TRUE(executor.Run(Corpus(), ops, &report).ok());
  EXPECT_EQ(report.node_failures, 0u);
}

}  // namespace
}  // namespace dj::dist
