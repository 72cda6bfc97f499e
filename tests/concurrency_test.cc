#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/probe.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

// The concurrency correctness toolkit: dj::Mutex / MutexLock / CondVar
// semantics, dynamic lock-order (deadlock-potential) detection with full
// reports, seeded schedule perturbation determinism, and the ThreadPool
// fork-join contract hammered under perturbation.

namespace dj {
namespace {

// ----------------------------------------------------------- dj::Mutex ----

TEST(MutexTest, LockUnlockAndGuard) {
  Mutex mu{"test.basic"};
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

TEST(MutexTest, TryLockFailsWhenHeldElsewhere) {
  ScopedLockOrderCapture capture;  // held-stack tracking is off in Release
  Mutex mu{"test.trylock"};
  mu.Lock();
  std::atomic<bool> acquired{false};
  std::thread other([&] { acquired = mu.TryLock(); });
  other.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  // Uncontended TryLock succeeds and leaves the mutex locked.
  EXPECT_TRUE(mu.TryLock());
  EXPECT_EQ(LockOrderRegistry::Global().HeldByThisThread(),
            std::vector<std::string>{"test.trylock"});
  mu.Unlock();
}

TEST(MutexTest, CondVarWaitAndNotify) {
  ScopedLockOrderCapture capture;  // held-stack tracking is off in Release
  Mutex mu{"test.condvar"};
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    mu.Lock();
    cv.Wait(&mu, [&]() DJ_REQUIRES(mu) { return ready; });
    // The lock is held again after Wait, and the lock-order registry's
    // held-set reflects that.
    EXPECT_EQ(LockOrderRegistry::Global().HeldByThisThread(),
              std::vector<std::string>{"test.condvar"});
    mu.Unlock();
  }
  producer.join();
  EXPECT_TRUE(LockOrderRegistry::Global().HeldByThisThread().empty());
}

TEST(MutexTest, HeldByThisThreadTracksNesting) {
  ScopedLockOrderCapture capture;  // held-stack tracking is off in Release
  Mutex a{"test.held.A"};
  Mutex b{"test.held.B"};
  EXPECT_TRUE(LockOrderRegistry::Global().HeldByThisThread().empty());
  {
    MutexLock la(&a);
    MutexLock lb(&b);
    std::vector<std::string> expected{"test.held.A", "test.held.B"};
    EXPECT_EQ(LockOrderRegistry::Global().HeldByThisThread(), expected);
  }
  EXPECT_TRUE(LockOrderRegistry::Global().HeldByThisThread().empty());
}

// ----------------------------------------------------------- lock order ----

TEST(LockOrderTest, AbbaInversionDetectedWithBothStacks) {
  ScopedLockOrderCapture capture;
  Mutex a{"test.abba.A"};
  Mutex b{"test.abba.B"};
  {
    MutexLock la(&a);
    MutexLock lb(&b);  // records A -> B
  }
  {
    MutexLock lb(&b);
    MutexLock la(&a);  // records B -> A: closes the cycle
  }
  auto inversions = capture.inversions();
  ASSERT_EQ(inversions.size(), 1u);
  const auto& inv = inversions[0];
  // The cycle is a closed name path B -> A -> B (the edge just recorded
  // first, then the pre-existing opposing path).
  ASSERT_GE(inv.cycle.size(), 3u);
  EXPECT_EQ(inv.cycle.front(), inv.cycle.back());
  EXPECT_NE(std::find(inv.cycle.begin(), inv.cycle.end(), "test.abba.A"),
            inv.cycle.end());
  EXPECT_NE(std::find(inv.cycle.begin(), inv.cycle.end(), "test.abba.B"),
            inv.cycle.end());
  // Both acquisition stacks are present and name the locks involved.
  EXPECT_NE(inv.first_stack.find("'test.abba.A' -> 'test.abba.B'"),
            std::string::npos);
  EXPECT_NE(inv.first_stack.find("while holding [test.abba.A]"),
            std::string::npos);
  EXPECT_NE(inv.second_stack.find("'test.abba.B' -> 'test.abba.A'"),
            std::string::npos);
  EXPECT_NE(inv.second_stack.find("while holding [test.abba.B]"),
            std::string::npos);
  // The human-readable report carries both.
  std::string report = inv.ToString();
  EXPECT_NE(report.find("potential deadlock"), std::string::npos);
  EXPECT_NE(report.find("previously recorded order"), std::string::npos);
  EXPECT_NE(report.find("conflicting acquisition"), std::string::npos);
}

TEST(LockOrderTest, ConsistentDagOrderIsClean) {
  ScopedLockOrderCapture capture;
  Mutex a{"test.dag.A"};
  Mutex b{"test.dag.B"};
  Mutex c{"test.dag.C"};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        MutexLock la(&a);
        MutexLock lb(&b);
        MutexLock lc(&c);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(capture.inversions().empty());
  EXPECT_EQ(LockOrderRegistry::Global().InversionCount(), 0u);
}

TEST(LockOrderTest, ThreeLockCycleDetected) {
  ScopedLockOrderCapture capture;
  Mutex a{"test.cycle3.A"};
  Mutex b{"test.cycle3.B"};
  Mutex c{"test.cycle3.C"};
  {
    MutexLock la(&a);
    MutexLock lb(&b);  // A -> B
  }
  {
    MutexLock lb(&b);
    MutexLock lc(&c);  // B -> C
  }
  {
    MutexLock lc(&c);
    MutexLock la(&a);  // C -> A: closes A -> B -> C -> A
  }
  auto inversions = capture.inversions();
  ASSERT_EQ(inversions.size(), 1u);
  // All three lock classes appear in the cycle.
  const auto& cycle = inversions[0].cycle;
  ASSERT_EQ(cycle.size(), 4u);
  EXPECT_EQ(cycle.front(), cycle.back());
  for (const char* name : {"test.cycle3.A", "test.cycle3.B", "test.cycle3.C"}) {
    EXPECT_NE(std::find(cycle.begin(), cycle.end(), name), cycle.end())
        << name;
  }
}

TEST(LockOrderTest, SameLockClassInstancesAreNotAnInversion) {
  // Two instances of one lock class (like the per-thread span buffers)
  // acquired nested must not produce a self-edge or a report.
  ScopedLockOrderCapture capture;
  Mutex first{"test.same.class"};
  Mutex second{"test.same.class"};
  {
    MutexLock l1(&first);
    MutexLock l2(&second);
  }
  {
    MutexLock l2(&second);
    MutexLock l1(&first);
  }
  EXPECT_TRUE(capture.inversions().empty());
}

TEST(LockOrderTest, ResetInvalidatesThreadLocalEdgeCaches) {
  // After a Reset, this thread's seen-edge cache must not suppress
  // re-recording, so the same inversion is found again.
  for (int round = 0; round < 2; ++round) {
    ScopedLockOrderCapture capture;
    Mutex a{"test.reset.A"};
    Mutex b{"test.reset.B"};
    {
      MutexLock la(&a);
      MutexLock lb(&b);
    }
    {
      MutexLock lb(&b);
      MutexLock la(&a);
    }
    EXPECT_EQ(capture.inversions().size(), 1u) << "round " << round;
  }
}

TEST(LockOrderTest, OffModeRecordsNothing) {
  LockOrderRegistry& registry = LockOrderRegistry::Global();
  LockOrderRegistry::Mode saved = registry.mode();
  registry.SetMode(LockOrderRegistry::Mode::kOff);
  registry.Reset();
  {
    Mutex a{"test.off.A"};
    Mutex b{"test.off.B"};
    {
      MutexLock la(&a);
      MutexLock lb(&b);
    }
    {
      MutexLock lb(&b);
      MutexLock la(&a);
    }
  }
  EXPECT_EQ(registry.InversionCount(), 0u);
  EXPECT_TRUE(registry.Inversions().empty());
  registry.SetMode(saved);
  registry.Reset();
}

TEST(LockOrderTest, InversionSurfacesAsMetric) {
  obs::MetricsRegistry metrics;
  obs::InstallGlobalMetrics(&metrics);  // installs the lockorder bridge
  LockOrderRegistry& registry = LockOrderRegistry::Global();
  LockOrderRegistry::Mode saved = registry.mode();
  registry.SetMode(LockOrderRegistry::Mode::kOn);
  registry.Reset();
  {
    Mutex a{"test.metric.A"};
    Mutex b{"test.metric.B"};
    {
      MutexLock la(&a);
      MutexLock lb(&b);
    }
    {
      MutexLock lb(&b);
      MutexLock la(&a);
    }
  }
  const obs::Counter* counter = metrics.FindCounter("lockorder.inversions");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 1u);
  obs::InstallGlobalMetrics(nullptr);  // also uninstalls the bridge
  registry.SetMode(saved);
  registry.Reset();
}

// ---------------------------------------------------- sched perturbation ----

TEST(SchedTest, DisarmedProbeCostsNothingAndCountsNothing) {
  probe::Sched().Reset();
  DJ_SCHED_POINT("test.sched.disarmed");
  EXPECT_EQ(probe::Sched().Stats("test.sched.disarmed").hits, 0u);
  EXPECT_EQ(probe::Sched().TotalTriggers(), 0u);
}

TEST(SchedTest, ConfigureRejectsJunk) {
  probe::Registry& registry = probe::Sched();
  EXPECT_FALSE(registry.Configure("banana").ok());
  EXPECT_FALSE(registry.Configure("p=banana").ok());
  EXPECT_FALSE(registry.Configure("p=1.5").ok());
  EXPECT_FALSE(registry.Configure("max_us=0").ok());
  EXPECT_FALSE(registry.Configure("seed=xyz").ok());
  EXPECT_FALSE(registry.Configure("volume=11").ok());
  registry.Reset();
}

probe::PointStats RunSeededPoint(const std::string& spec,
                                         const std::string& point,
                                         int hits) {
  probe::Scoped sched(probe::Sched(), spec);
  EXPECT_TRUE(sched.status().ok()) << sched.status().ToString();
  for (int i = 0; i < hits; ++i) {
    DJ_SCHED_POINT(point);
  }
  return probe::Sched().Stats(point);
}

TEST(SchedTest, SameSeedSameDecisionSequence) {
  const std::string spec = "seed=42;p=0.5;max_us=32";
  auto first = RunSeededPoint(spec, "test.sched.det", 300);
  auto second = RunSeededPoint(spec, "test.sched.det", 300);
  EXPECT_EQ(first.hits, 300u);
  EXPECT_GT(first.triggers, 0u);
  EXPECT_LT(first.triggers, 300u);
  EXPECT_TRUE(first == second);
}

TEST(SchedTest, DifferentSeedDifferentSequence) {
  auto first = RunSeededPoint("seed=1;p=0.5;max_us=64", "test.sched.seed", 300);
  auto second =
      RunSeededPoint("seed=2;p=0.5;max_us=64", "test.sched.seed", 300);
  // 300 draws of perturb/action/duration agreeing across seeds is
  // astronomically unlikely; slept_micros alone is a 300-draw fingerprint.
  EXPECT_FALSE(first == second);
}

TEST(SchedTest, DeterminismHoldsAcrossThreads) {
  // Which thread absorbs a perturbation varies; the per-point decision
  // sequence (and so the stats) must not.
  const std::string spec = "seed=7;p=0.25;max_us=16";
  auto run = [&] {
    probe::Scoped sched(probe::Sched(), spec);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 100; ++i) DJ_SCHED_POINT("test.sched.mt");
      });
    }
    for (auto& t : threads) t.join();
    return probe::Sched().Stats("test.sched.mt");
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first.hits, 400u);
  EXPECT_TRUE(first == second);
}

TEST(SchedTest, OnlyFilterRestrictsPerturbedPoints) {
  probe::Scoped sched(probe::Sched(), "seed=3;p=1;only=io.");
  ASSERT_TRUE(sched.status().ok());
  for (int i = 0; i < 10; ++i) {
    DJ_SCHED_POINT("io.parse.gather");
    DJ_SCHED_POINT("threadpool.dispatch");
  }
  EXPECT_EQ(probe::Sched().Stats("io.parse.gather").triggers, 10u);
  EXPECT_EQ(probe::Sched().Stats("threadpool.dispatch").triggers, 0u);
}

TEST(SchedTest, PerturbationSurfacesAsMetric) {
  obs::MetricsRegistry metrics;
  obs::InstallGlobalMetrics(&metrics);  // installs the sched bridge
  {
    probe::Scoped sched(probe::Sched(), "seed=5;p=1;max_us=4");
    ASSERT_TRUE(sched.status().ok());
    for (int i = 0; i < 5; ++i) DJ_SCHED_POINT("test.sched.metric");
  }
  const obs::Counter* counter = metrics.FindCounter("sched.perturbations");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 5u);
  obs::InstallGlobalMetrics(nullptr);
}

// ---------------------------------------------- ThreadPool under stress ----

TEST(ThreadPoolShutdownTest, ConstructSubmitDestructHammer) {
  // Each pool is destroyed right after its job, while workers woken for it
  // may still be on their way back to sleep.
  probe::Scoped sched(probe::Sched(),
                      "seed=13;p=0.1;max_us=100;only=threadpool.");
  ASSERT_TRUE(sched.status().ok());
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    pool.ParallelFor(16, [&ran](size_t begin, size_t end) {
      ran.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), 50 * 16);
}

TEST(ThreadPoolNestingTest, NestedParallelForRunsInline) {
  probe::Scoped sched(probe::Sched(), "seed=17;p=0.2;max_us=50");
  ASSERT_TRUE(sched.status().ok());
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // A nested ParallelFor on the same pool would deadlock if it queued
      // and waited; the pool must detect the nesting and run inline.
      pool.ParallelFor(4, [&](size_t b, size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b),
                              std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(ThreadPoolNestingTest, SecondCallerRunsInlineWhileJobHeld) {
  // Two threads share one pool. Every chunk of thread A's job holds the
  // pool until thread B's call has returned, so B finds a job published
  // and must run its whole range on its own thread.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> a_hits(64);
    std::vector<std::atomic<int>> b_hits(40);
    std::atomic<bool> a_running{false};
    std::atomic<bool> b_done{false};
    std::atomic<bool> b_off_thread{false};
    std::thread a([&] {
      pool.ParallelFor(a_hits.size(), [&](size_t begin, size_t end) {
        a_running.store(true);
        while (!b_done.load()) std::this_thread::yield();
        for (size_t i = begin; i < end; ++i) a_hits[i].fetch_add(1);
      });
    });
    std::thread b([&] {
      const std::thread::id self = std::this_thread::get_id();
      while (!a_running.load()) std::this_thread::yield();
      pool.ParallelFor(b_hits.size(), [&](size_t begin, size_t end) {
        if (std::this_thread::get_id() != self) b_off_thread.store(true);
        for (size_t i = begin; i < end; ++i) b_hits[i].fetch_add(1);
      });
      b_done.store(true);
    });
    a.join();
    b.join();
    EXPECT_FALSE(b_off_thread.load()) << "round " << round;
    for (const auto& hit : a_hits) ASSERT_EQ(hit.load(), 1) << round;
    for (const auto& hit : b_hits) ASSERT_EQ(hit.load(), 1) << round;
  }
}

TEST(ThreadPoolNestingTest, ChunkFansOutOnAnotherPool) {
  // The outer pool's two workers may call the inner pool at once; the one
  // that finds it busy runs inline, and every call covers the inner range.
  ThreadPool outer(2);
  ThreadPool inner(3);
  constexpr size_t kInner = 32;
  std::vector<std::atomic<int>> hits(8 * kInner);
  outer.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      inner.ParallelFor(kInner, [&](size_t b, size_t e) {
        for (size_t j = b; j < e; ++j) hits[i * kInner + j].fetch_add(1);
      });
    }
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, PoolLocksStayOrderClean) {
  // The pool's locking must not create inversions even under perturbation.
  ScopedLockOrderCapture capture;
  probe::Scoped sched(probe::Sched(), "seed=19;p=0.1;max_us=50");
  ASSERT_TRUE(sched.status().ok());
  {
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int call = 0; call < 10; ++call) {
      pool.ParallelFor(100, [&ran](size_t begin, size_t end) {
        ran.fetch_add(static_cast<int>(end - begin),
                      std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(ran.load(), 10 * 100);
  }
  EXPECT_TRUE(capture.inversions().empty());
}

}  // namespace
}  // namespace dj
