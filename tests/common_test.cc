#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/resource_monitor.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace dj {
namespace {

// ------------------------------------------------------------- Status ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad np");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad np");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

Status UseAssignOrReturn(int x, int* out) {
  DJ_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-5, &out).ok());
}

// -------------------------------------------------------- string_util ----

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, SplitLinesNoTrailingEmpty) {
  EXPECT_EQ(SplitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("a\n\nb"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("\t\n "), "");
}

TEST(StringUtilTest, CaseConversionsAsciiOnly) {
  EXPECT_EQ(AsciiToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(AsciiToUpper("MiXeD"), "MIXED");
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("file.jsonl", ".jsonl"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("no match", "xyz", "!"), "no match");
  EXPECT_EQ(ReplaceAll("abc", "", "!"), "abc");  // empty needle is a no-op
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("42x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", &d));
  EXPECT_DOUBLE_EQ(d, 2500.0);
  EXPECT_FALSE(ParseDouble("1.2.3", &d));
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
}

TEST(StringUtilTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3u << 20), "3.00 MiB");
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(StringUtilTest, EditDistanceIsSymmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"),
            EditDistance("saturday", "sunday"));
  EXPECT_EQ(EditDistance("sunday", "saturday"), 3u);
}

TEST(StringUtilTest, EditDistanceSingleEdits) {
  EXPECT_EQ(EditDistance("min_score", "min_scor"), 1u);   // deletion
  EXPECT_EQ(EditDistance("min_score", "min_scores"), 1u); // insertion
  EXPECT_EQ(EditDistance("min_score", "min_scope"), 1u);  // substitution
}

TEST(StringUtilTest, EditDistanceOpTypo) {
  // The motivating case: a dropped letter in an OP name.
  EXPECT_EQ(
      EditDistance("languge_id_score_filter", "language_id_score_filter"),
      1u);
}

// --------------------------------------------------------------- hash ----

TEST(HashTest, Fnv1a64IsStable) {
  // Known value must never change: cache keys depend on it.
  EXPECT_EQ(Fnv1a64("data-juicer"), Fnv1a64("data-juicer"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(HashTest, SeedChangesHash) {
  EXPECT_NE(Fnv1a64("x", 1), Fnv1a64("x", 2));
}

TEST(HashTest, FingerprintCollisionsUnlikely) {
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(FingerprintHex(Fingerprint("doc-" + std::to_string(i))));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, FingerprintEqualityAndHexFormat) {
  Fingerprint128 a = Fingerprint("same");
  Fingerprint128 b = Fingerprint("same");
  EXPECT_TRUE(a == b);
  EXPECT_EQ(FingerprintHex(a).size(), 32u);
}

TEST(HashTest, SplitMix64Bijective) {
  EXPECT_NE(SplitMix64(0), SplitMix64(1));
  EXPECT_NE(SplitMix64(0), 0u);
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// HashCombine feeds LSH band keys, n-gram hashes and cache keys, so its
// values are pinned.
TEST(HashTest, HashCombinePinnedValues) {
  EXPECT_EQ(HashCombine(1, 2), 0x358faf979be1d322ULL);
  EXPECT_EQ(HashCombine(0, 0), 0x805821f2fa6849c4ULL);
  EXPECT_EQ(HashCombine(~0ULL, 0x9e3779b97f4a7c15ULL), 0xb34fe7dbdefc1e37ULL);
  EXPECT_EQ(HashCombine(0x0123456789abcdefULL, ~0ULL), 0xcd08530b61a5da9fULL);
}

// One pass over both FNV streams gives the two-pass definition.
TEST(HashTest, FingerprintIsTwoMixedFnvStreams) {
  std::mt19937_64 rng(3);
  for (size_t len = 0; len < 300; ++len) {
    std::string s(len, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    const Fingerprint128 fp = Fingerprint(s);
    EXPECT_EQ(fp.lo, SplitMix64(Fnv1a64(s)));
    EXPECT_EQ(fp.hi, SplitMix64(Fnv1a64(s, 0x9e3779b97f4a7c15ULL) ^ len));
  }
}

// ------------------------------------------------------------- random ----

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ParetoMatchesNumpyConvention) {
  // numpy.random.pareto(9) has mean 1/(9-1) = 0.125 and minimum 0.
  Rng rng(8);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double p = rng.Pareto(9.0);
    ASSERT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum / n, 0.125, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  std::vector<double> weights{1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(12);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

// -------------------------------------------------------- thread_pool ----

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(10, [&](size_t, size_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, main_id);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

/// Runs ForEachIndex over [0, n) and records how often each index ran.
Status CountVisits(ThreadPool* pool, size_t n,
                   std::vector<std::atomic<int>>* visits,
                   const std::function<Status(size_t)>& fn) {
  return ForEachIndex(pool, n, [&](size_t i) {
    (*visits)[i].fetch_add(1);
    return fn(i);
  });
}

TEST(ThreadPoolTest, ForEachIndexParallelMatchesSerial) {
  auto square_odd = [](std::vector<uint64_t>* out) {
    return [out](size_t i) {
      (*out)[i] = i % 2 == 1 ? i * i : 0;
      return Status::Ok();
    };
  };
  std::vector<uint64_t> serial(500);
  ASSERT_TRUE(ForEachIndex(nullptr, serial.size(), square_odd(&serial)).ok());
  for (size_t width : {1, 2, 3, 4, 8}) {
    ThreadPool pool(width);
    std::vector<uint64_t> parallel(serial.size(), 7);
    ASSERT_TRUE(
        ForEachIndex(&pool, parallel.size(), square_odd(&parallel)).ok());
    EXPECT_EQ(parallel, serial) << "width " << width;
  }
}

TEST(ThreadPoolTest, ForEachIndexReturnsTheLowestFailingIndex) {
  // Several indices fail with distinct messages, spread over chunks; the
  // lowest one yields first, so at width > 1 a later chunk usually fails
  // before it does. The call must still report it, as a serial loop would.
  const std::set<size_t> failing = {17, 18, 42, 90, 99};
  auto fn = [&](size_t i) {
    if (i == 17) {
      for (int k = 0; k < 50; ++k) std::this_thread::yield();
    }
    if (failing.count(i) > 0) {
      return Status::Internal("row " + std::to_string(i));
    }
    return Status::Ok();
  };
  Status serial = ForEachIndex(nullptr, 100, fn);
  EXPECT_EQ(serial.code(), StatusCode::kInternal);
  EXPECT_EQ(serial.message(), "row 17");
  for (size_t width : {1, 2, 3, 4, 8}) {
    ThreadPool pool(width);
    for (int rep = 0; rep < 200; ++rep) {
      Status s = ForEachIndex(&pool, 100, fn);
      ASSERT_EQ(s.message(), "row 17") << "width " << width << " rep " << rep;
    }
  }
}

TEST(ThreadPoolTest, ForEachIndexFailureInFirstChunk) {
  // 100 indices at width 4 make 16 chunks of 7: index 0 fails, so its
  // chunk stops there and every other chunk still runs in full.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  Status s = CountVisits(&pool, 100, &visits, [](size_t i) {
    return i == 0 ? Status::Corruption("first") : Status::Ok();
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "first");
  for (size_t i = 1; i < 7; ++i) EXPECT_EQ(visits[i].load(), 0) << i;
  for (size_t i = 7; i < 100; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ForEachIndexFailureInLastChunk) {
  for (size_t width : {1, 4}) {
    ThreadPool pool(width);
    std::vector<std::atomic<int>> visits(100);
    Status s = CountVisits(&pool, 100, &visits, [](size_t i) {
      return i == 99 ? Status::IoError("last") : Status::Ok();
    });
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_EQ(s.message(), "last");
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1) << "width " << width;
  }
}

TEST(ThreadPoolTest, ForEachIndexEmptyAndSingleIndex) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    bool called = false;
    EXPECT_TRUE(ForEachIndex(p, 0, [&](size_t) {
                  called = true;
                  return Status::Internal("never");
                }).ok());
    EXPECT_FALSE(called);
    std::vector<std::atomic<int>> visits(1);
    Status s = CountVisits(p, 1, &visits, [](size_t i) {
      return Status::NotFound("only " + std::to_string(i));
    });
    EXPECT_EQ(s.message(), "only 0");
    EXPECT_EQ(visits[0].load(), 1);
  }
}

// --------------------------------------------------- resource_monitor ----

TEST(ResourceMonitorTest, ReadsCurrentRss) {
  EXPECT_GT(ResourceMonitor::CurrentRssBytes(), 0u);
}

TEST(ResourceMonitorTest, CpuSecondsMonotone) {
  double before = ResourceMonitor::CurrentCpuSeconds();
  volatile double x = 0;
  for (int i = 0; i < 2000000; ++i) x = x + i * 0.5;
  EXPECT_GE(ResourceMonitor::CurrentCpuSeconds(), before);
}

TEST(ResourceMonitorTest, StartStopProducesReport) {
  ResourceMonitor monitor(0.01);
  monitor.Start();
  volatile double x = 0;
  for (int i = 0; i < 3000000; ++i) x = x + i;
  ResourceReport report = monitor.Stop();
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.peak_rss_bytes, 0u);
  EXPECT_GE(report.peak_rss_bytes, report.avg_rss_bytes);
}

TEST(ResourceMonitorTest, SamplesAccumulateAndCpuMonotone) {
  ResourceMonitor monitor(0.005);
  monitor.Start();
  volatile double x = 0;
  for (int i = 0; i < 20000000; ++i) x = x + i;
  ResourceReport report = monitor.Stop();
  std::vector<ResourceSample> samples = monitor.Samples();
  ASSERT_FALSE(samples.empty());
  double last_wall = -1, last_cpu = -1;
  for (const ResourceSample& s : samples) {
    EXPECT_GT(s.wall_seconds, last_wall);
    EXPECT_GE(s.cpu_seconds, last_cpu);
    last_wall = s.wall_seconds;
    last_cpu = s.cpu_seconds;
    EXPECT_GE(report.peak_rss_bytes, s.rss_bytes);
  }
  EXPECT_GE(report.cpu_seconds, 0.0);
}

TEST(ResourceMonitorTest, DoubleStopIsSafe) {
  ResourceMonitor monitor(0.01);
  monitor.Start();
  ResourceReport first = monitor.Stop();
  ResourceReport second = monitor.Stop();  // not running: empty report
  EXPECT_GT(first.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.wall_seconds, 0.0);
  EXPECT_EQ(second.peak_rss_bytes, 0u);
}

TEST(ResourceMonitorTest, StopWithoutStartIsSafe) {
  ResourceMonitor monitor;
  ResourceReport report = monitor.Stop();
  EXPECT_DOUBLE_EQ(report.wall_seconds, 0.0);
}

TEST(ResourceMonitorTest, RssReadFailureYieldsZero) {
  EXPECT_EQ(ResourceMonitor::ReadRssBytesFrom("/nonexistent/statm"), 0u);
  EXPECT_EQ(ResourceMonitor::ReadRssBytesFrom("/proc/self/environ"), 0u);
}

// ------------------------------------------------------------- logging ----

TEST(LoggingTest, ParseLogLevelAcceptsKnownNames) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(LoggingTest, ParseLogLevelRejectsUnknownNames) {
  LogLevel level = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_EQ(level, LogLevel::kError) << "failed parse must not modify out";
}

TEST(LoggingTest, SetLogLevelOverridesEnvironment) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

}  // namespace
}  // namespace dj
