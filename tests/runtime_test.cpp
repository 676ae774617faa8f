// Tests for the work-stealing runtime: spawn/sync semantics, exception
// propagation through syncs (paper Sec. 1: "full support for C++
// exceptions"), parallel_for, the serial-elision engine, and scheduler
// statistics. Worker counts above the physical core count are intentional:
// oversubscription shakes out interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <numeric>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hyper/reducer.hpp"
#include "runtime/mutex.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "runtime/slot_arena.hpp"
#include "runtime/task_pool.hpp"
#include "stress/chaos.hpp"

namespace cilkpp::rt {
namespace {

int serial_fib(int n) { return n < 2 ? n : serial_fib(n - 1) + serial_fib(n - 2); }

int fib(context& ctx, int n) {
  if (n < 2) return n;
  int a = 0;
  ctx.spawn([&a, n](context& child) { a = fib(child, n - 1); });
  const int b = fib(ctx, n - 2);
  ctx.sync();
  return a + b;
}

class SchedulerFib : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerFib, MatchesSerial) {
  scheduler sched(GetParam());
  const int result = sched.run([](context& ctx) { return fib(ctx, 18); });
  EXPECT_EQ(result, serial_fib(18));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerFib,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Scheduler, SingleWorkerRunsInline) {
  scheduler sched(1);
  EXPECT_EQ(sched.num_workers(), 1u);
  int side_effect = 0;
  sched.run([&](context& ctx) {
    ctx.spawn([&](context&) { side_effect = 7; });
    ctx.sync();
  });
  EXPECT_EQ(side_effect, 7);
}

TEST(Scheduler, DefaultWorkerCountIsPositive) {
  scheduler sched;
  EXPECT_GE(sched.num_workers(), 1u);
}

TEST(Scheduler, RunReturnsValuesOfAnyType) {
  scheduler sched(2);
  const std::string s =
      sched.run([](context&) { return std::string("hello"); });
  EXPECT_EQ(s, "hello");
  sched.run([](context&) {});  // void works too
}

TEST(Scheduler, SequentialRunsReuseWorkers) {
  scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    const int r = sched.run([round](context& ctx) { return fib(ctx, 10) + round; });
    EXPECT_EQ(r, serial_fib(10) + round);
  }
}

TEST(Scheduler, ManySpawnsFromOneFrame) {
  // The Sec. 3.1 spawn-loop shape: one frame spawns n children, one sync.
  scheduler sched(4);
  constexpr int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.run([&](context& ctx) {
    for (int i = 0; i < n; ++i) {
      ctx.spawn([&hits, i](context&) { hits[i].fetch_add(1); });
    }
    ctx.sync();
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, SyncIsLocalToTheFrame) {
  // A sync in a called child frame must not wait for the parent's children.
  scheduler sched(4);
  std::atomic<int> order{0};
  int parent_child_seen_at = -1;
  sched.run([&](context& ctx) {
    std::atomic<bool> parent_child_done{false};
    ctx.spawn([&](context&) {
      parent_child_done.store(true);
      order.fetch_add(1);
    });
    ctx.call([&](context& callee) {
      callee.spawn([&](context&) { order.fetch_add(1); });
      callee.sync();  // joins only callee's child
      // No assertion on parent_child_done here (it may or may not have run) —
      // the point is this sync cannot deadlock waiting for the parent's child.
      parent_child_seen_at = order.load();
    });
    ctx.sync();
    EXPECT_TRUE(parent_child_done.load());
  });
  EXPECT_GE(parent_child_seen_at, 1);
  EXPECT_EQ(order.load(), 2);
}

TEST(Scheduler, NestedCallsReturnValues) {
  scheduler sched(2);
  const int v = sched.run([](context& ctx) {
    return ctx.call([](context& inner) {
      return inner.call([](context&) { return 21; }) * 2;
    });
  });
  EXPECT_EQ(v, 42);
}

TEST(Scheduler, DeepSpawnChain) {
  // Each frame spawns one child that recurses: depth stresses frame
  // bookkeeping rather than breadth.
  scheduler sched(3);
  std::function<void(context&, int, std::atomic<int>&)> deep =
      [&](context& ctx, int depth, std::atomic<int>& count) {
        count.fetch_add(1);
        if (depth == 0) return;
        ctx.spawn([&, depth](context& c) { deep(c, depth - 1, count); });
        ctx.sync();
      };
  std::atomic<int> count{0};
  sched.run([&](context& ctx) { deep(ctx, 500, count); });
  EXPECT_EQ(count.load(), 501);
}

// --- Exceptions. ---

TEST(Exceptions, ChildExceptionRethrownAtSync) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw std::runtime_error("child"); });
                 ctx.sync();
               }),
               std::runtime_error);
}

TEST(Exceptions, ExceptionCarriesMessage) {
  scheduler sched(2);
  try {
    sched.run([](context& ctx) {
      ctx.spawn([](context&) { throw std::runtime_error("boom-42"); });
      ctx.sync();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-42");
  }
}

TEST(Exceptions, ImplicitSyncAtRunEndRethrows) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw std::logic_error("late"); });
                 // no explicit sync: run()'s implicit sync must deliver it
               }),
               std::logic_error);
}

TEST(Exceptions, BodyExceptionJoinsChildrenFirst) {
  scheduler sched(4);
  std::atomic<int> children_done{0};
  EXPECT_THROW(sched.run([&](context& ctx) {
                 for (int i = 0; i < 50; ++i) {
                   ctx.spawn([&](context&) { children_done.fetch_add(1); });
                 }
                 throw std::runtime_error("body");
               }),
               std::runtime_error);
  // All spawned children completed before run() returned.
  EXPECT_EQ(children_done.load(), 50);
}

TEST(Exceptions, EarliestChildExceptionWins) {
  scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    try {
      sched.run([](context& ctx) {
        ctx.spawn([](context&) { throw std::runtime_error("first"); });
        ctx.spawn([](context&) { throw std::runtime_error("second"); });
        ctx.sync();
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      // Serially earliest spawn's exception is delivered regardless of the
      // order in which the children actually failed.
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(Exceptions, SchedulerUsableAfterException) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw 1; });
                 ctx.sync();
               }),
               int);
  const int v = sched.run([](context& ctx) { return fib(ctx, 12); });
  EXPECT_EQ(v, serial_fib(12));
}

TEST(Exceptions, ThrownFromCalledFrame) {
  scheduler sched(2);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.call([](context& inner) {
                   inner.spawn([](context&) { throw std::runtime_error("x"); });
                   inner.sync();
                 });
               }),
               std::runtime_error);
}

// --- parallel_for. ---

class ParallelFor : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFor, TouchesEveryIndexExactlyOnce) {
  scheduler sched(4);
  constexpr int n = 5000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, n, [&](int i) { hits[i].fetch_add(1); }, GetParam());
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(Grains, ParallelFor,
                         ::testing::Values(0u, 1u, 7u, 64u, 100000u));

TEST(ParallelForBasics, EmptyAndSingletonRanges) {
  scheduler sched(2);
  int count = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 5, 5, [&](int) { ++count; });
    parallel_for(ctx, 5, 4, [&](int) { ++count; });
    parallel_for(ctx, 5, 6, [&](int i) { count += i; });
  });
  EXPECT_EQ(count, 5);
}

TEST(ParallelForBasics, FillsArrayLikeFig1MainLoop) {
  // Fig. 1, line 26: cilk_for filling a[i] = sin(i).
  scheduler sched(4);
  constexpr int n = 100;
  std::vector<double> a(n, 0.0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, n, [&](int i) { a[i] = i * 0.5; });
  });
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(a[i], i * 0.5);
}

TEST(ParallelForEdges, GrainLargerThanRangeRunsSeriallyWithoutSpawns) {
  // The splitter only spawns while more than `grain` iterations remain, so
  // a grain exceeding the trip count must degenerate to a plain loop.
  scheduler sched(2);
  sched.reset_stats();
  std::vector<int> hits(10, 0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 10, [&](int i) { hits[i]++; }, 1000);
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, SingleElementWithHugeGrain) {
  scheduler sched(2);
  sched.reset_stats();
  int seen = -1;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 41, 42, [&](int i) { seen = i; }, 1u << 30);
  });
  EXPECT_EQ(seen, 41);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, EmptyRangeNeverInvokesBodyOrSpawns) {
  scheduler sched(2);
  sched.reset_stats();
  int count = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 0, [&](int) { ++count; }, 4);
    parallel_for(ctx, 9, 3, [&](int) { ++count; }, 4);  // reversed range
  });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, BodyThrowsOnSerialGrainPath) {
  // grain > range: the throw unwinds through the loop's call frame, not a
  // spawned task, exercising the other exception delivery path.
  scheduler sched(2);
  int executed = 0;
  EXPECT_THROW(
      sched.run([&](context& ctx) {
        parallel_for(ctx, 0, 8,
                     [&](int i) {
                       ++executed;
                       if (i == 3) throw std::runtime_error("serial-path");
                     },
                     64);
      }),
      std::runtime_error);
  EXPECT_EQ(executed, 4);  // iterations run in order up to the throw
  EXPECT_EQ(sched.run([](context&) { return 3; }), 3);  // still usable
}

TEST(ParallelForEdges, SpawningLeafBodyOnSmallRangeIsAwaited) {
  // Regression: the serial n <= grain fast path applies only to the body(i)
  // form. The body(leaf, i) form is allowed to spawn, and those spawns must
  // attach to a loop frame whose implicit sync awaits them — inlined on the
  // caller's strand they would escape the loop and still be running when
  // parallel_for returns.
  scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    sched.run([&](context& ctx) {
      std::atomic<bool> done{false};
      parallel_for(ctx, 0, 1, [&](context& leaf, int) {
        leaf.spawn([&done](context&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          done.store(true, std::memory_order_release);
        });
      });
      EXPECT_TRUE(done.load(std::memory_order_acquire));
    });
  }
}

TEST(ParallelForBasics, DefaultGrainRule) {
  EXPECT_EQ(default_grain(100, 4), 3u);       // 100/32
  EXPECT_EQ(default_grain(10, 4), 1u);        // never zero
  EXPECT_EQ(default_grain(1 << 20, 4), 2048u);  // capped at 2048
}

// --- Serial elision engine. ---

int serial_engine_fib(serial_context& ctx, int n) {
  if (n < 2) return n;
  int a = 0;
  ctx.spawn([&a, n](serial_context& child) { a = serial_engine_fib(child, n - 1); });
  const int b = serial_engine_fib(ctx, n - 2);
  ctx.sync();
  return a + b;
}

TEST(SerialElision, SameAnswerAsRuntime) {
  serial_context root;
  EXPECT_EQ(serial_engine_fib(root, 15), serial_fib(15));
}

TEST(SerialElision, AccountAccumulatesAcrossSpawnsAndCalls) {
  serial_context root;
  root.account(5);
  root.spawn([](serial_context& c) { c.account(10); });
  root.call([](serial_context& c) {
    c.account(20);
    return 0;
  });
  root.sync();
  EXPECT_EQ(root.accounted_work(), 35u);
}

TEST(SerialElision, ParallelForIsPlainLoop) {
  serial_context root;
  std::vector<int> hits(100, 0);
  parallel_for(root, 0, 100, [&](int i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

// --- Statistics. ---

TEST(Stats, SpawnsCountedAndStealsBounded) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 15); });
  const worker_stats s = sched.stats();
  // fib(15) spawns once per internal call of fib(n), n in [2, 15].
  EXPECT_GT(s.spawns, 0u);
  EXPECT_EQ(s.tasks_executed, s.spawns);  // every spawned task ran exactly once
  EXPECT_LE(s.steals, s.tasks_executed);
  EXPECT_GT(s.max_frame_depth, 5u);
}

TEST(Stats, ResetClearsCounters) {
  scheduler sched(2);
  sched.run([](context& ctx) { (void)fib(ctx, 10); });
  sched.reset_stats();
  EXPECT_EQ(sched.stats().spawns, 0u);
  EXPECT_EQ(sched.stats().tasks_executed, 0u);
}

TEST(Stats, PerWorkerBreakdownSumsToTotal) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 16); });
  const auto per = sched.per_worker_stats();
  ASSERT_EQ(per.size(), 4u);
  worker_stats sum;
  for (const auto& w : per) sum.merge(w);
  EXPECT_EQ(sum.spawns, sched.stats().spawns);
  EXPECT_EQ(sum.steals, sched.stats().steals);
}

TEST(Stats, StealProvenanceSumsToSteals) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 20); });
  const auto per = sched.per_worker_stats();
  ASSERT_EQ(per.size(), 4u);
  std::uint64_t total_by_victim = 0;
  for (std::size_t w = 0; w < per.size(); ++w) {
    ASSERT_EQ(per[w].steals_by_victim.size(), 4u);
    // Nobody steals from themselves, and each thief's per-victim counts
    // add up to exactly its successful steals.
    EXPECT_EQ(per[w].steals_by_victim[w], 0u);
    std::uint64_t row = 0;
    for (std::uint64_t c : per[w].steals_by_victim) row += c;
    EXPECT_EQ(row, per[w].steals);
    total_by_victim += row;
  }
  EXPECT_EQ(total_by_victim, sched.stats().steals);
  // The merged aggregate view carries the same provenance totals.
  worker_stats sum;
  for (const auto& w : per) sum.merge(w);
  std::uint64_t merged = 0;
  for (std::uint64_t c : sum.steals_by_victim) merged += c;
  EXPECT_EQ(merged, sum.steals);
}

// --- More edge cases. ---

TEST(EdgeCases, ExceptionInsideParallelForBody) {
  // n = 1000, grain 16: the loop frame spawns [0, 500) and bursts
  // [500, 1000), and that child bursts [0, 500), so i = 10 and i = 500 both
  // run in spawned burst leaves (neither is in a frame's inline last grain).
  // Each leaf delivers its exception into its parent's slot, and every sync
  // rethrows the serially earliest slot's: i = 10, at any worker count.
  for (unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    std::atomic<int> executed{0};
    try {
      sched.run([&](context& ctx) {
        parallel_for(ctx, 0, 1000, [&](int i) {
          executed.fetch_add(1);
          if (i == 10) throw std::runtime_error("i=10");
          if (i == 500) throw std::runtime_error("i=500");
        }, 16);
      });
      ADD_FAILURE() << "run did not rethrow at P=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "i=10") << "P=" << workers;
    }
    // Some iterations ran; the scheduler survived and remains usable.
    EXPECT_GT(executed.load(), 0);
    const int ok = sched.run([](context&) { return 7; });
    EXPECT_EQ(ok, 7);
  }
}

TEST(EdgeCases, RunReturnsMoveOnlyType) {
  scheduler sched(2);
  auto p = sched.run([](context& ctx) {
    auto result = std::make_unique<int>(0);
    int a = 0;
    ctx.spawn([&a](context&) { a = 21; });
    ctx.sync();
    *result = 2 * a;
    return result;
  });
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 42);
}

TEST(EdgeCases, MutableLambdaStateStaysWithTask) {
  scheduler sched(4);
  std::atomic<int> total{0};
  sched.run([&](context& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.spawn([counter = i, &total](context&) mutable {
        ++counter;  // task-private mutable state
        total.fetch_add(counter);
      });
    }
    ctx.sync();
  });
  EXPECT_EQ(total.load(), 100 * 101 / 2);
}

TEST(EdgeCases, HugeFineGrainedParallelFor) {
  // 200k grain-1 iterations: stresses task allocation, deque growth, and
  // the lazy-splitting spine without deep stacks.
  scheduler sched(4);
  std::atomic<std::int64_t> sum{0};
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 200000, [&](int i) {
      if ((i & 1023) == 0) sum.fetch_add(i);
    }, 1);
  });
  std::int64_t expected = 0;
  for (int i = 0; i < 200000; i += 1024) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(EdgeCases, SpawnFromManyNestedCalledFrames) {
  scheduler sched(2);
  std::function<int(context&, int)> nest = [&](context& ctx, int depth) -> int {
    if (depth == 0) return 1;
    return ctx.call([&](context& inner) {
      int child = 0;
      inner.spawn([&](context& c) { child = nest(c, depth - 1); });
      inner.sync();
      return child + 1;
    });
  };
  EXPECT_EQ(sched.run([&](context& ctx) { return nest(ctx, 100); }), 101);
}

TEST(EdgeCases, ManyWorkersOversubscribedSmoke) {
  // 32 workers on however few cores this host has: correctness only.
  scheduler sched(32);
  const int r = sched.run([](context& ctx) { return fib(ctx, 16); });
  EXPECT_EQ(r, serial_fib(16));
  EXPECT_EQ(sched.num_workers(), 32u);
}

// --- Pedigrees and deterministic parallel RNG. ---

// Collect (strand_id, first dprng draw) along a fixed spawn tree.
void collect_ids(context& ctx, int depth,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>& out,
                 std::mutex& mu) {
  {
    std::lock_guard lock(mu);
    out.emplace_back(ctx.strand_id(), ctx.dprng_draw());
  }
  if (depth == 0) return;
  ctx.spawn([&, depth](context& c) { collect_ids(c, depth - 1, out, mu); });
  collect_ids(ctx, depth - 1, out, mu);
  ctx.sync();
}

TEST(Pedigree, StrandIdsIdenticalAcrossWorkerCountsAndRuns) {
  auto run_once = [](unsigned workers) {
    scheduler sched(workers);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;
    std::mutex mu;
    sched.run([&](context& ctx) { collect_ids(ctx, 6, ids, mu); });
    std::sort(ids.begin(), ids.end());  // collection order is racy; ids aren't
    return ids;
  };
  const auto reference = run_once(1);
  EXPECT_FALSE(reference.empty());
  for (unsigned workers : {2u, 4u, 8u}) {
    EXPECT_EQ(run_once(workers), reference) << workers << " workers";
  }
  EXPECT_EQ(run_once(4), run_once(4));  // repeat runs too
}

TEST(Pedigree, StrandsBeforeAndAfterSpawnDiffer) {
  scheduler sched(2);
  sched.run([](context& ctx) {
    const auto before = ctx.strand_id();
    ctx.spawn([](context&) {});
    const auto after = ctx.strand_id();
    EXPECT_NE(before, after);
    ctx.sync();
    EXPECT_NE(after, ctx.strand_id());  // sync starts another strand
  });
}

TEST(Pedigree, SiblingsAndParentHaveDistinctIds) {
  scheduler sched(4);
  std::atomic<std::uint64_t> a{0}, b{0};
  std::uint64_t parent_id = 0;
  sched.run([&](context& ctx) {
    parent_id = ctx.strand_id();
    ctx.spawn([&](context& c) { a.store(c.strand_id()); });
    ctx.spawn([&](context& c) { b.store(c.strand_id()); });
    ctx.sync();
  });
  EXPECT_NE(a.load(), b.load());
  EXPECT_NE(a.load(), parent_id);
  EXPECT_NE(b.load(), parent_id);
}

TEST(Pedigree, DprngDrawsAdvanceWithinAStrand) {
  scheduler sched(1);
  sched.run([](context& ctx) {
    const auto d1 = ctx.dprng_draw();
    const auto d2 = ctx.dprng_draw();
    const auto d3 = ctx.dprng_draw();
    EXPECT_NE(d1, d2);
    EXPECT_NE(d2, d3);
    EXPECT_NE(d1, d3);
  });
}

TEST(Pedigree, DprngStreamIsDeterministic) {
  auto draws = [](unsigned workers) {
    scheduler sched(workers);
    return sched.run([](context& ctx) {
      std::vector<std::uint64_t> v;
      for (int i = 0; i < 5; ++i) v.push_back(ctx.dprng_draw());
      ctx.spawn([&](context& c) { v.push_back(c.dprng_draw()); });
      ctx.sync();
      v.push_back(ctx.dprng_draw());
      return v;
    });
  };
  EXPECT_EQ(draws(1), draws(4));
}

// --- Task pool. ---

TEST(TaskPool, RecyclesBlocksWithinAThread) {
  void* first = task_allocate(48);
  task_deallocate(first, 48);
  void* second = task_allocate(40);  // same 64-byte class: reuses the block
  EXPECT_EQ(second, first);
  task_deallocate(second, 40);
}

TEST(TaskPool, SizeClassesAreIndependent) {
  void* small = task_allocate(64);
  void* big = task_allocate(300);
  EXPECT_NE(small, big);
  task_deallocate(small, 64);
  void* big2 = task_allocate(257);  // 512-class: must not take the 64 block
  EXPECT_NE(big2, small);
  task_deallocate(big, 300);
  task_deallocate(big2, 257);
}

TEST(TaskPool, OversizedRequestsFallBackToHeap) {
  void* huge = task_allocate(10000);
  ASSERT_NE(huge, nullptr);
  std::memset(huge, 0xab, 10000);  // fully usable
  task_deallocate(huge, 10000);
}

TEST(TaskPool, SurvivesHeavyChurnAcrossWorkers) {
  // Tasks are allocated on the spawning worker and freed on the executing
  // one; heavy cross-worker churn must neither leak (ASan build) nor crash.
  scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> n{0};
    sched.run([&](context& ctx) {
      for (int i = 0; i < 5000; ++i) {
        ctx.spawn([&n](context&) { n.fetch_add(1); });
      }
      ctx.sync();
    });
    EXPECT_EQ(n.load(), 5000);
  }
}

// --- cilk::mutex. ---

TEST(Mutex, CountsAcquisitions) {
  mutex m;
  m.lock();
  m.unlock();
  {
    std::lock_guard guard(m);
  }
  EXPECT_EQ(m.acquisitions(), 2u);
  EXPECT_EQ(m.contended_acquisitions(), 0u);
  m.reset_counters();
  EXPECT_EQ(m.acquisitions(), 0u);
}

TEST(Mutex, TryLockFailsWhenHeld) {
  mutex m;
  m.lock();
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(Mutex, ContentionDetectedUnderParallelUse) {
  scheduler sched(4);
  mutex m;
  std::uint64_t shared = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 20000, [&](int) {
      std::lock_guard guard(m);
      ++shared;
    }, /*grain=*/16);
  });
  EXPECT_EQ(shared, 20000u);
  EXPECT_EQ(m.acquisitions(), 20000u);
  // With more than one worker the lock should have been contended at least
  // occasionally (not asserted strictly — a 1-core box may serialize).
}

// --- slot_arena: a frame's window on its worker's slot stack, the
// stable-address storage under the lock-free join (DESIGN.md §4). A child
// holds a raw frame_slot* across its whole execution, so append must never
// move existing slots. ---

TEST(SlotArena, AddressesStableAcrossGrowth) {
  slot_stack stack;
  slot_arena a(stack);
  std::vector<frame_slot*> addrs;
  for (int i = 0; i < 200; ++i) {
    addrs.push_back(a.append(/*is_child=*/true));
    // Every address handed out so far must still be the i-th slot: appends
    // (including chunk growth) never relocate earlier slots.
    std::vector<frame_slot*> seen;
    if (i == 0 || i == 1 || i == 2 || i == 17 || i == 199) {
      a.for_each([&](frame_slot& s) { seen.push_back(&s); });
      ASSERT_EQ(seen, addrs);
    }
  }
  EXPECT_EQ(a.size(), 200u);
  EXPECT_EQ(stack.top(), 200u);
  EXPECT_TRUE(a.has_children());
  EXPECT_EQ(a.last(), addrs.back());
  // All distinct.
  std::vector<frame_slot*> sorted = addrs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SlotArena, ChunksReusedAcrossEpochs) {
  slot_stack stack;
  slot_arena a(stack);
  std::vector<frame_slot*> first_epoch;
  for (int i = 0; i < 100; ++i) first_epoch.push_back(a.append(true));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_children());
  EXPECT_EQ(a.last(), nullptr);
  EXPECT_EQ(stack.top(), 0u);
  // The next epoch walks the same retained chunks: every append returns the
  // identical address, with no allocator traffic.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.append(i % 2 == 0), first_epoch[static_cast<std::size_t>(i)]);
  }
}

TEST(SlotArena, ResetCleanDropsStructureInPlace) {
  slot_stack stack;
  slot_arena a(stack);
  std::vector<frame_slot*> addrs;
  for (int i = 0; i < 40; ++i) addrs.push_back(a.append(true));
  EXPECT_TRUE(a.all_children());
  a.reset_clean();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_children());
  for (int i = 0; i < 40; ++i) {
    frame_slot* s = a.append(false);
    EXPECT_EQ(s, addrs[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(s->is_child);  // append refreshes the stale mark
  }
  EXPECT_FALSE(a.all_children());
}

TEST(SlotArena, NestedWindowsStackAndRelease) {
  // A nested frame's window starts at the top of its worker's stack and
  // gives the slots back when it is cleared, so the enclosing window's next
  // append lands right after its own last slot.
  slot_stack stack;
  slot_arena outer(stack);
  frame_slot* o0 = outer.append(true);
  frame_slot* o1 = outer.append(false);
  {
    slot_arena inner(stack);
    EXPECT_TRUE(inner.empty());
    for (int i = 0; i < 50; ++i) inner.append(true);
    EXPECT_EQ(inner.size(), 50u);
    inner.clear();
    EXPECT_EQ(stack.top(), 2u);
  }
  EXPECT_EQ(outer.size(), 2u);
  EXPECT_EQ(outer.last(), o1);
  EXPECT_TRUE(outer.has_children());
  EXPECT_FALSE(outer.all_children());
  std::vector<frame_slot*> seen;
  outer.for_each([&](frame_slot& s) { seen.push_back(&s); });
  EXPECT_EQ(seen, (std::vector<frame_slot*>{o0, o1}));
  EXPECT_EQ(outer.append(true), &stack.at(2));
}

// --- Exception safety of view ownership transfers: a user reduce or absorb
// may throw; every view must still be destroyed exactly once. ---

struct counting_view final : view_base {
  explicit counting_view(int* live) : live(live) { ++*live; }
  ~counting_view() override { --*live; }
  int* live;
};

struct throwing_hyper final : hyperobject_base {
  throwing_hyper(int* live, bool throw_on_reduce, bool throw_on_absorb)
      : live(live),
        throw_on_reduce(throw_on_reduce),
        throw_on_absorb(throw_on_absorb) {}

  std::unique_ptr<view_base> identity_view() const override {
    return std::make_unique<counting_view>(live);
  }
  void reduce_views(view_base&, view_base&) const override {
    if (throw_on_reduce) throw std::runtime_error("reduce boom");
  }
  void absorb_final(std::unique_ptr<view_base>) override {
    if (throw_on_absorb) throw std::runtime_error("absorb boom");
  }

  int* live;
  bool throw_on_reduce;
  bool throw_on_absorb;
};

TEST(ViewOwnership, ThrowingReduceInFoldDoesNotDoubleFree) {
  // fold_view_maps must transfer each right view to a single owner before
  // the (potentially throwing) reduce runs: on a throw, both maps unwind,
  // and a view still listed in both would be deleted twice.
  int live = 0;
  throwing_hyper a(&live, false, false);
  throwing_hyper b(&live, true, false);  // second entry reduced: throws
  throwing_hyper c(&live, false, false);
  {
    view_map left, right;
    left.insert_new(&a, std::make_unique<counting_view>(&live));
    left.insert_new(&b, std::make_unique<counting_view>(&live));
    right.insert_new(&a, std::make_unique<counting_view>(&live));
    right.insert_new(&b, std::make_unique<counting_view>(&live));
    right.insert_new(&c, std::make_unique<counting_view>(&live));
    ASSERT_EQ(live, 5);
    EXPECT_THROW(fold_view_maps(left, std::move(right)), std::runtime_error);
    // a's right view was reduced and destroyed; b's was destroyed during
    // the throw; c's was never reached and still sits in right. Both left
    // views survive.
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);  // every view destroyed exactly once
}

TEST(ViewOwnership, ThrowingAbsorbAtRootDoesNotDoubleFree) {
  // finish_root hands each final view to absorb_final; if the user reduce
  // inside throws, the run's unwinding destroys the remaining view map,
  // which must not re-delete the view just handed over.
  int live = 0;
  throwing_hyper h(&live, false, true);
  scheduler sched(2);
  EXPECT_THROW(sched.run([&](context& ctx) { (void)ctx.hyper_view(h); }),
               std::runtime_error);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(sched.run([](context&) { return 7; }), 7);  // still usable
}

// --- Wide fan-out through the lock-free join: 10^5 children of ONE frame,
// with reducer traffic and two throwing children. Exercises chunked arena
// growth, slot-content delivery from helpers, serial-order folding, and
// the serially-earliest-exception rule, all in a single sync. ---

TEST(WideFanout, HundredThousandChildrenReducersAndEarliestException) {
  constexpr int n = 100'000;
  constexpr int throw_a = 60'000;  // serially later — must lose
  constexpr int throw_b = 25'000;  // serially earliest — must win
  scheduler sched(4);
  cilk::reducer<cilk::hyper::opadd<std::uint64_t>> sum;
  try {
    sched.run([&](context& ctx) {
      for (int i = 0; i < n; ++i) {
        ctx.spawn([&sum, i](context& child) {
          sum.view(child) += 1;  // before the throw: no update may be lost
          if (i == throw_a || i == throw_b) {
            throw std::runtime_error("child " + std::to_string(i));
          }
        });
      }
      ctx.sync();
    });
    FAIL() << "expected the sync to rethrow a child exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), ("child " + std::to_string(throw_b)).c_str());
  }
  // finish_root_abandoned still absorbs completed strands' views.
  EXPECT_EQ(sum.value(), static_cast<std::uint64_t>(n));
}

TEST(WideFanout, RepeatedWideSyncsReuseArenaChunks) {
  // The steady-state of a parallel_for spine: fold, spawn wide again. The
  // arena must reuse its chunks across epochs and the pool its blocks; the
  // leak oracle (allocs == frees) must hold afterwards.
  scheduler sched(2);
  std::atomic<std::uint64_t> total{0};
  sched.run([&](context& ctx) {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 1000; ++i) {
        ctx.spawn([&total](context&) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
      ctx.sync();
    }
  });
  EXPECT_EQ(total.load(), 50'000u);
}

// --- The work-first spawn protocol (DESIGN.md §4): spawn records live in
// the child's slot, the owner joins popped children with a plain count,
// and only stolen children touch the atomic join counter. ---

/// A capture that poisons itself when destroyed, so a read after the
/// closure's destruction is caught even without a sanitizer.
struct guarded_capture {
  static constexpr std::uint64_t live_tag = 0x600dcafe;
  std::uint64_t tag = live_tag;
  std::uint64_t values[4] = {1, 2, 3, 4};
  guarded_capture() = default;
  guarded_capture(const guarded_capture&) = default;
  guarded_capture& operator=(const guarded_capture&) = default;
  ~guarded_capture() {
    tag = 0;
    std::fill(std::begin(values), std::end(values), 0);
  }
};

TEST(SpawnProtocol, GrandchildrenReadClosureCapturesAfterBodyReturns) {
  // The closure's body spawns grandchildren that read its by-value
  // captures and returns WITHOUT a sync, so every grandchild runs after the
  // body returned — during the child's implicit sync or on a thief. The
  // closure (living in the child's slot) must survive until that sync.
  stress::chaos_params params;
  params.prefer_steal_chance = 0xffff;  // force-steal nearly everything
  stress::seeded_chaos chaos(params, 7, 4);
  scheduler sched(4);
  sched.install_chaos(&chaos);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> dead_reads{0};
  constexpr int children = 16;
  constexpr int grandchildren = 8;
  for (int round = 0; round < 10; ++round) {
    sched.run([&](context& ctx) {
      for (int i = 0; i < children; ++i) {
        ctx.spawn([cap = guarded_capture{}, &sum, &dead_reads](context& c) {
          for (int k = 0; k < grandchildren; ++k) {
            c.spawn([&cap, &sum, &dead_reads, k](context&) {
              std::this_thread::yield();
              if (cap.tag != guarded_capture::live_tag) dead_reads.fetch_add(1);
              sum.fetch_add(cap.values[k % 4]);
            });
          }
        });
      }
      ctx.sync();
    });
  }
  sched.remove_chaos();
  EXPECT_EQ(dead_reads.load(), 0);
  // Σ over k < 8 of values[k % 4] = 2·(1+2+3+4) = 20 per child.
  EXPECT_EQ(sum.load(), 10u * children * 20u);
  EXPECT_GT(chaos.stats().forced_steals, 0u);
  EXPECT_GT(sched.stats().steals, 0u);
}

TEST(SpawnProtocol, LocalAndStolenChildrenBothThrowEarliestWins) {
  // Child A (serially first) is stolen — the parent does not reach its
  // sync until a thief has started A — and throws after child B, which the
  // parent pops and runs itself, has thrown. The fold must wait for both
  // and pick A's exception.
  scheduler sched(4);
  int mixed_rounds = 0;
  for (int round = 0; round < 5; ++round) {
    std::atomic<bool> a_started{false};
    std::atomic<int> ran{0};
    unsigned a_worker = 0;
    unsigned b_worker = 0;
    unsigned parent_worker = 0;
    try {
      sched.run([&](context& ctx) {
        parent_worker = ctx.worker_id();
        ctx.spawn([&](context& c) {
          a_worker = c.worker_id();
          a_started.store(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          ran.fetch_add(1);
          throw std::runtime_error("stolen child");
        });
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!a_started.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        ctx.spawn([&](context& c) {
          b_worker = c.worker_id();
          ran.fetch_add(1);
          throw std::runtime_error("local child");
        });
        ctx.sync();
      });
      FAIL() << "expected the sync to rethrow a child exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "stolen child");
    }
    EXPECT_EQ(ran.load(), 2);  // both children joined before the rethrow
    EXPECT_NE(a_worker, parent_worker);
    // B is popped by the parent at its sync unless a thief wins that race,
    // which is rare; over all rounds the mixed case must have occurred.
    if (b_worker == parent_worker) ++mixed_rounds;
  }
  EXPECT_GT(mixed_rounds, 0);
}

TEST(SpawnProtocol, CalledFrameFoldsViewsIntoParentAfterReleasingWindow) {
  // finish_called takes the callee's views and releases its window before
  // appending a segment to the parent's window, which is then the top of
  // the slot stack again. The list reducer checks the serial order.
  scheduler sched(4);
  for (int round = 0; round < 50; ++round) {
    cilk::reducer<cilk::hyper::list_append<int>> out;
    sched.run([&](context& ctx) {
      out.view(ctx).push_back(0);
      ctx.spawn([&](context& c) { out.view(c).push_back(1); });
      const std::size_t top = ctx.slot_stack_top();
      ctx.call([&](context& f) {
        EXPECT_EQ(f.slot_stack_top(), top);  // an empty window on top
        out.view(f).push_back(2);
        f.spawn([&](context& c) { out.view(c).push_back(3); });
        out.view(f).push_back(4);
      });
      // The callee's folded views became one segment slot in this window.
      EXPECT_EQ(ctx.slot_stack_top(), top + 1);
      out.view(ctx).push_back(5);
      ctx.spawn([&](context& c) { out.view(c).push_back(6); });
      ctx.sync();
    });
    const std::list<int> expected{0, 1, 2, 3, 4, 5, 6};
    EXPECT_EQ(out.value(), expected) << "round " << round;
  }
}

TEST(SpawnProtocol, ExceptionThroughCallRestoresSlotStackTop) {
  // A called frame that throws after spawning (more children than one
  // slot chunk holds) and opening reducer segments must give its whole
  // window back: the stack top returns to the caller's, and no view in the
  // released slots leaks.
  struct live_view final : view_base {
    explicit live_view(std::atomic<int>* live) : live(live) { ++*live; }
    ~live_view() override { --*live; }
    std::atomic<int>* live;
  };
  struct live_hyper final : hyperobject_base {
    std::unique_ptr<view_base> identity_view() const override {
      return std::make_unique<live_view>(live);
    }
    void reduce_views(view_base&, view_base&) const override {}
    void absorb_final(std::unique_ptr<view_base>) override {}
    std::atomic<int>* live = nullptr;
  };
  std::atomic<int> live{0};
  live_hyper h;
  h.live = &live;
  scheduler sched(2);
  for (int round = 0; round < 10; ++round) {
    sched.run([&](context& ctx) {
      EXPECT_EQ(ctx.slot_stack_top(), 0u);
      ctx.spawn([&](context& c) { (void)c.hyper_view(h); });
      const std::size_t top = ctx.slot_stack_top();
      EXPECT_THROW(ctx.call([&](context& f) {
        (void)f.hyper_view(h);
        for (std::size_t i = 0; i < 2 * slot_stack::chunk_slots; ++i) {
          f.spawn([&](context& c) { (void)c.hyper_view(h); });
        }
        throw std::runtime_error("call");
      }), std::runtime_error);
      EXPECT_EQ(ctx.slot_stack_top(), top);
      // A callee that returns without syncing a throwing child: the
      // exception surfaces from the callee's implicit sync, out of call().
      EXPECT_THROW(ctx.call([&](context& f) {
        f.spawn([&](context& c) {
          (void)c.hyper_view(h);
          throw std::runtime_error("implicit");
        });
      }), std::runtime_error);
      EXPECT_EQ(ctx.slot_stack_top(), top);
      // The released slots are pristine for the next window.
      ctx.call([&](context& f) {
        for (int i = 0; i < 8; ++i) f.spawn([](context&) {});
      });
      EXPECT_EQ(ctx.slot_stack_top(), top);
      ctx.sync();
    });
    EXPECT_EQ(live.load(), 0);
  }
}

TEST(SpawnProtocol, OversizeClosureRunsThroughTaskAllocateAndBalances) {
  struct big_capture {
    unsigned char bytes[frame_slot::record_bytes] = {};
  };
  scheduler sched(4);
  constexpr int n = 200;
  std::atomic<std::uint64_t> sum{0};
  const task_pool_stats before = task_pool_totals();
  sched.run([&](context& ctx) {
    for (int i = 0; i < n; ++i) {
      big_capture cap;
      cap.bytes[sizeof(cap.bytes) - 1] = static_cast<unsigned char>(i % 7);
      ctx.spawn([cap, &sum](context&) {
        sum.fetch_add(cap.bytes[sizeof(cap.bytes) - 1]);
      });
    }
    ctx.sync();
  });
  const task_pool_stats after = task_pool_totals();
  std::uint64_t expected = 0;
  for (int i = 0; i < n; ++i) expected += static_cast<std::uint64_t>(i % 7);
  EXPECT_EQ(sum.load(), expected);
  // Exactly one block per oversize spawn, every one of them freed before
  // its child signalled — so the pool balances the moment run() returns.
  EXPECT_EQ(after.total_allocs() - before.total_allocs(),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(after.total_frees() - before.total_frees(),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(after.live(), before.live());
}

// ---------------------------------------------------------------------------
// The out-of-line branches of the spawn/sync path: a child whose window is
// not empty when its body returns, a child that throws, and a child that
// hands reducer views to its parent. Each runs on one worker, where every
// child is popped by its own parent, and on four workers with a chaos
// policy that forces steals, where children migrate.

struct branch_config {
  unsigned workers;
  bool force_steals;
};

class SlowBranches : public ::testing::TestWithParam<branch_config> {
 protected:
  /// Runs fn(ctx, round) `rounds` times on the configured scheduler. Under
  /// forced steals it keeps going (for up to 10 s) until a thief has taken
  /// at least one task: a round is short, and the pool's thieves may still
  /// be parked when one ends.
  template <typename Fn>
  void run_rounds(int rounds, Fn fn) {
    stress::chaos_params params;
    params.prefer_steal_chance = 0xffff;  // force-steal nearly everything
    stress::seeded_chaos chaos(params, 11, GetParam().workers);
    scheduler sched(GetParam().workers);
    if (GetParam().force_steals) sched.install_chaos(&chaos);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int round = 0;
         round < rounds ||
         (GetParam().force_steals && sched.stats().steals == 0 &&
          std::chrono::steady_clock::now() < deadline);
         ++round) {
      sched.run([&](context& ctx) { fn(ctx, round); });
    }
    sched.remove_chaos();
    const worker_stats st = sched.stats();
    EXPECT_EQ(st.tasks_executed, st.spawns);
    if (GetParam().force_steals) {
      EXPECT_GT(chaos.stats().forced_steals, 0u);
      EXPECT_GT(st.steals, 0u);
    } else {
      EXPECT_EQ(st.steals, 0u);
    }
  }
};

TEST_P(SlowBranches, ChildReturningWithUnsyncedChildrenJoinsThemFirst) {
  constexpr int children = 8;
  constexpr int grandchildren = 4;
  run_rounds(20, [&](context& ctx, int) {
    std::atomic<int> hits[children * grandchildren] = {};
    std::atomic<int> joined_early{0};
    const std::size_t top = ctx.slot_stack_top();
    for (int i = 0; i < children; ++i) {
      ctx.spawn([&, i](context& c) {
        for (int k = 0; k < grandchildren; ++k) {
          c.spawn([&, i, k](context&) { hits[i * grandchildren + k].fetch_add(1); });
        }
        // Returns with its window non-empty: the implicit sync joins them.
      });
    }
    ctx.sync();
    for (const std::atomic<int>& h : hits) {
      if (h.load() != 1) joined_early.fetch_add(1);
    }
    EXPECT_EQ(joined_early.load(), 0);
    EXPECT_EQ(ctx.slot_stack_top(), top);
  });
}

TEST_P(SlowBranches, ChildThrowingAfterSpawningSeriallyEarliestWins) {
  run_rounds(20, [&](context& ctx, int round) {
    std::atomic<int> ran{0};
    auto spawn_thrower = [&](context& c, const char* what) {
      c.spawn([&ran, what](context&) {
        ran.fetch_add(1);
        throw std::runtime_error(what);
      });
    };
    // A throws from its body after spawning two throwing children: its
    // body's exception is what its implicit sync hands on. B, serially
    // later, throws too. A's wins at the parent.
    try {
      ctx.spawn([&](context& a) {
        spawn_thrower(a, "a.0");
        spawn_thrower(a, "a.1");
        ran.fetch_add(1);
        throw std::runtime_error("a.body");
      });
      ctx.spawn([&](context& c) { spawn_thrower(c, "b.0"); });
      ctx.sync();
      ADD_FAILURE() << "sync did not rethrow (round " << round << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "a.body") << "round " << round;
    }
    EXPECT_EQ(ran.load(), 4);  // every child joined before the rethrow
    // Without a body exception, A's implicit sync hands on its serially
    // earliest child's exception, which still beats B's.
    ran.store(0);
    try {
      ctx.spawn([&](context& a) {
        spawn_thrower(a, "a.0");
        spawn_thrower(a, "a.1");
      });
      ctx.spawn([&](context& c) { spawn_thrower(c, "b.0"); });
      ctx.sync();
      ADD_FAILURE() << "sync did not rethrow (round " << round << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "a.0") << "round " << round;
    }
    EXPECT_EQ(ran.load(), 3);
  });
}

TEST_P(SlowBranches, ChildDeliveringViewsFoldsInSerialOrder) {
  run_rounds(20, [&](context& ctx, int round) {
    cilk::reducer<cilk::hyper::list_append<int>> out;
    ctx.call([&](context& f) {
      out.view(f).push_back(0);
      f.spawn([&](context& a) {
        out.view(a).push_back(1);
        a.spawn([&](context& g) { out.view(g).push_back(2); });
        out.view(a).push_back(3);
        // Unsynced: A's implicit sync folds 1 | 2 | 3 and delivers them.
      });
      out.view(f).push_back(4);
      f.spawn([&](context& b) { out.view(b).push_back(5); });
      out.view(f).push_back(6);
      f.spawn([](context&) {});  // a clean child between two that deliver
      f.spawn([&](context& c) { out.view(c).push_back(7); });
      f.sync();
      out.view(f).push_back(8);
    });
    const std::list<int> expected{0, 1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(out.collect(ctx), expected) << "round " << round;
  });
}

INSTANTIATE_TEST_SUITE_P(
    SoloAndForcedSteals, SlowBranches,
    ::testing::Values(branch_config{1, false}, branch_config{4, true}),
    [](const ::testing::TestParamInfo<branch_config>& info) {
      return info.param.force_steals ? std::string("P4ForcedSteals")
                                     : std::string("P1");
    });

}  // namespace
}  // namespace cilkpp::rt
