// Task-pool statistics and the leak-balance oracle (the counting facade
// over the slab magazines that serves spawn records too big for their
// slot): per-class alloc/free/reuse accounting, the oversize row, and
// global balance once schedulers are quiescent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"

namespace {

using namespace cilkpp::rt;

task_pool_stats snap() { return task_pool_totals(); }

/// A child frees its pooled spawn record before it signals its parent, so
/// the pool balances by the time run() returns; the bounded wait only
/// turns a leak into a clean failure instead of a snapshot race.
bool wait_balanced(unsigned timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!task_pool_totals().balanced()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return task_pool_totals().balanced();
    }
    std::this_thread::yield();
  }
  return true;
}

/// A closure bigger than a slot's record buffer: its spawn record cannot
/// live in the child's slot and falls back to one task_allocate block.
struct oversize_capture {
  unsigned char bytes[frame_slot::record_bytes] = {};
};

std::uint64_t oversize_fanout(context& ctx, unsigned width) {
  std::atomic<std::uint64_t> n{0};
  for (unsigned i = 0; i < width; ++i) {
    oversize_capture cap;
    cap.bytes[0] = 1;
    ctx.spawn([cap, &n](context&) { n.fetch_add(cap.bytes[0]); });
  }
  ctx.sync();
  return n.load();
}

std::uint64_t tree_sum(context& ctx, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t a = 0;
  ctx.spawn([&a, depth](context& child) { a = tree_sum(child, depth - 1); });
  const std::uint64_t b = tree_sum(ctx, depth - 1);
  ctx.sync();
  return a + b;
}

TEST(TaskPoolSizeClass, BranchFreeMapMatchesClassBoundaries) {
  using pool_detail::size_class;
  // Exact boundaries of {64, 128, 256, 512}: the branch-free bit_width
  // formula must agree with "smallest class that fits" at every edge.
  EXPECT_EQ(size_class(0), 0u);
  EXPECT_EQ(size_class(1), 0u);
  EXPECT_EQ(size_class(63), 0u);
  EXPECT_EQ(size_class(64), 0u);
  EXPECT_EQ(size_class(65), 1u);
  EXPECT_EQ(size_class(128), 1u);
  EXPECT_EQ(size_class(129), 2u);
  EXPECT_EQ(size_class(256), 2u);
  EXPECT_EQ(size_class(257), 3u);
  EXPECT_EQ(size_class(512), 3u);
  EXPECT_GE(size_class(513), pool_detail::num_classes);  // oversize row
  EXPECT_GE(size_class(4096), pool_detail::num_classes);
  // Exhaustive against the reference definition over the pooled range.
  for (std::size_t size = 0; size <= 600; ++size) {
    std::size_t expected = pool_detail::num_classes;
    for (std::size_t c = 0; c < pool_detail::num_classes; ++c) {
      if (size <= pool_detail::class_sizes[c]) {
        expected = c;
        break;
      }
    }
    EXPECT_EQ(size_class(size), expected) << "size " << size;
  }
}

TEST(TaskPoolFreelist, IntrusiveLifoReusesBlocksInStackOrder) {
  // Blocks come back through the calling thread's slab magazine, a LIFO:
  // newest-first.
  void* a = task_allocate(64);
  void* b = task_allocate(64);
  void* c = task_allocate(64);
  ASSERT_NE(a, b);
  ASSERT_NE(b, c);
  task_deallocate(a, 64);
  task_deallocate(b, 64);
  task_deallocate(c, 64);
  EXPECT_EQ(task_allocate(64), c);
  EXPECT_EQ(task_allocate(64), b);
  EXPECT_EQ(task_allocate(64), a);
  task_deallocate(a, 64);
  task_deallocate(b, 64);
  task_deallocate(c, 64);
}

TEST(TaskPoolStats, CountsAllocsAndFreesPerClass) {
  const task_pool_stats before = snap();
  void* p = task_allocate(64);  // class 0
  void* q = task_allocate(200); // class 2 (256)
  task_deallocate(p, 64);
  task_deallocate(q, 200);
  const task_pool_stats after = snap();
  EXPECT_EQ(after.classes[0].block_size, 64u);
  EXPECT_EQ(after.classes[2].block_size, 256u);
  EXPECT_EQ(after.classes[0].allocs, before.classes[0].allocs + 1);
  EXPECT_EQ(after.classes[0].frees, before.classes[0].frees + 1);
  EXPECT_EQ(after.classes[2].allocs, before.classes[2].allocs + 1);
  EXPECT_EQ(after.classes[2].frees, before.classes[2].frees + 1);
}

TEST(TaskPoolStats, ReuseCountedWhenServedFromFreeList) {
  // Warm the 128-byte class, then allocate again: the second allocation
  // must be served from the magazine and counted as a reuse.
  void* warm = task_allocate(100);
  task_deallocate(warm, 100);
  const task_pool_stats before = snap();
  void* p = task_allocate(128);
  const task_pool_stats after = snap();
  EXPECT_EQ(p, warm);  // LIFO recycling hands back the same block
  EXPECT_EQ(after.classes[1].reused, before.classes[1].reused + 1);
  task_deallocate(p, 128);
}

TEST(TaskPoolStats, OversizeRequestsCountedOnFallbackRow) {
  const task_pool_stats before = snap();
  void* p = task_allocate(4096);
  const task_pool_stats mid = snap();
  task_deallocate(p, 4096);
  const task_pool_stats after = snap();
  const auto& row = after.classes[pool_detail::num_classes];
  EXPECT_EQ(row.block_size, 0u);  // oversize row, no fixed class size
  EXPECT_EQ(row.allocs, before.classes[pool_detail::num_classes].allocs + 1);
  EXPECT_EQ(row.frees, before.classes[pool_detail::num_classes].frees + 1);
  EXPECT_EQ(mid.live(), before.live() + 1);
  EXPECT_EQ(after.live(), before.live());
}

TEST(TaskPoolStats, LiveTracksOutstandingBlocks) {
  const task_pool_stats before = snap();
  void* a = task_allocate(64);
  void* b = task_allocate(64);
  EXPECT_EQ(snap().live(), before.live() + 2);
  task_deallocate(a, 64);
  EXPECT_EQ(snap().live(), before.live() + 1);
  task_deallocate(b, 64);
  EXPECT_EQ(snap().live(), before.live());
}

TEST(TaskPoolStats, BalancedAfterSchedulerRuns) {
  // The leak oracle: a spawn whose record fits its slot draws no pool
  // block, an oversize-closure spawn draws exactly one, and the pool
  // balances at quiescence no matter which worker freed which block.
  const task_pool_stats before = snap();
  task_pool_stats mid;
  {
    scheduler sched(4);
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t sum =
          sched.run([](context& ctx) { return tree_sum(ctx, 10); });
      EXPECT_EQ(sum, std::uint64_t{1} << 10);
    }
    // 4 x (2^10 - 1) in-slot spawns, zero blocks.
    mid = snap();
    EXPECT_EQ(mid.total_allocs(), before.total_allocs());
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t n =
          sched.run([](context& ctx) { return oversize_fanout(ctx, 256); });
      EXPECT_EQ(n, 256u);
    }
    ASSERT_TRUE(wait_balanced());
  }
  const task_pool_stats after = snap();
  EXPECT_TRUE(after.balanced())
      << after.total_allocs() << " allocs vs " << after.total_frees()
      << " frees";
  // Exactly one block per oversize spawn...
  EXPECT_EQ(after.total_allocs(), mid.total_allocs() + 4 * 256);
  // ...and repeat runs recycle those blocks instead of carving new ones.
  std::uint64_t reused = 0, mid_reused = 0;
  for (const auto& c : after.classes) reused += c.reused;
  for (const auto& c : mid.classes) mid_reused += c.reused;
  EXPECT_GT(reused, mid_reused);
}

TEST(TaskPoolStats, BalanceSurvivesExceptionUnwinds) {
  scheduler sched(2);
  for (int round = 0; round < 8; ++round) {
    try {
      sched.run([&](context& ctx) {
        ctx.spawn([](context& child) { (void)tree_sum(child, 6); });
        ctx.spawn([](context&) { throw std::runtime_error("boom"); });
        ctx.sync();
      });
      FAIL() << "exception did not propagate";
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_TRUE(wait_balanced());
}

}  // namespace
