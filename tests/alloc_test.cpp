// cilkpp_slab certification (DESIGN.md §4.11): size-class geometry, the
// magazine automaton's batching and retention invariants, cross-thread block
// migration, leak balance under the schedule-fuzz chaos sweep, and the
// memlens layout certificate — slab-served blocks can never false-share a
// cache line, checked on both SP engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "cilkscreen/screen_context.hpp"
#include "memlens/analyzer.hpp"
#include "memlens/report.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "stress/chaos.hpp"

namespace cilkpp {
namespace {

// --- Size-class geometry ---------------------------------------------------

TEST(SlabGeometry, SizeClassMap) {
  EXPECT_EQ(alloc::size_class(0), 0u);
  EXPECT_EQ(alloc::size_class(1), 0u);
  EXPECT_EQ(alloc::size_class(64), 0u);
  EXPECT_EQ(alloc::size_class(65), 1u);
  EXPECT_EQ(alloc::size_class(128), 1u);
  EXPECT_EQ(alloc::size_class(129), 2u);
  EXPECT_EQ(alloc::size_class(4096), alloc::num_classes - 1);
  EXPECT_GE(alloc::size_class(4097), alloc::num_classes);  // oversize
  // Every class size serves exactly the sizes that map to it.
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    EXPECT_EQ(alloc::size_class(alloc::class_sizes[c]), c);
    EXPECT_EQ(alloc::size_class(alloc::class_sizes[c] / 2 + 1), c);
  }
}

TEST(SlabGeometry, ClassSizesAreCacheLineMultiples) {
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    EXPECT_EQ(alloc::class_sizes[c] % alloc::block_align, 0u)
        << "class " << c;
  }
  // The pool's classes must all be slab-servable (no silent oversize).
  EXPECT_LE(sizeof(void*) * 8, alloc::class_sizes[alloc::num_classes - 1]);
}

TEST(SlabGeometry, BlocksAreLineAlignedAndDisjoint) {
  constexpr int n = 64;
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    const std::size_t sz = alloc::class_sizes[c];
    std::vector<void*> blocks;
    for (int i = 0; i < n; ++i) blocks.push_back(alloc::slab_allocate(sz));
    std::vector<std::uintptr_t> addrs;
    for (void* p : blocks) {
      const auto a = reinterpret_cast<std::uintptr_t>(p);
      EXPECT_EQ(a % alloc::block_align, 0u);
      addrs.push_back(a);
    }
    // Pairwise disjoint at block granularity: no two live blocks overlap,
    // and since sizes are line multiples and starts line-aligned, no two
    // live blocks share a cache line either.
    std::sort(addrs.begin(), addrs.end());
    for (std::size_t i = 1; i < addrs.size(); ++i) {
      EXPECT_GE(addrs[i] - addrs[i - 1], sz);
    }
    for (void* p : blocks) alloc::slab_deallocate(p, sz);
  }
}

// --- Magazine batching and retention ---------------------------------------

/// Refills are amortized: draining n blocks costs ~n/capacity depot trips.
TEST(SlabMagazines, RefillBatching) {
  constexpr std::size_t sz = 256;
  constexpr std::size_t n = alloc::magazine_capacity * 8;
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t refills0 =
      tc->magazine_refills.load(std::memory_order_relaxed);
  std::vector<void*> held;
  for (std::size_t i = 0; i < n; ++i) held.push_back(alloc::slab_allocate(sz));
  const std::uint64_t refills =
      tc->magazine_refills.load(std::memory_order_relaxed) - refills0;
  // n blocks cannot arrive in fewer than n/capacity magazines; the +2 slack
  // covers the partially-drained magazines at both ends of the window.
  EXPECT_GE(refills + 2, n / alloc::magazine_capacity);
  EXPECT_LE(refills, n / alloc::magazine_capacity + 2);
  for (void* p : held) alloc::slab_deallocate(p, sz);
}

/// The loaded/backup pair retains two magazines, so LIFO churn that
/// straddles a magazine boundary stays OUT of the depot at steady state
/// (the Bonwick invariant; without it every churn cycle costs two locks).
TEST(SlabMagazines, SteadyStateChurnNeverTouchesDepot) {
  constexpr std::size_t sz = 512;
  constexpr int depth = static_cast<int>(alloc::magazine_capacity) + 11;
  void* p[depth];
  // Warm: one churn cycle populates loaded+backup for this class.
  for (int i = 0; i < depth; ++i) p[i] = alloc::slab_allocate(sz);
  for (int i = depth - 1; i >= 0; --i) alloc::slab_deallocate(p[i], sz);
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t refills0 =
      tc->magazine_refills.load(std::memory_order_relaxed);
  const std::uint64_t returns0 =
      tc->magazine_returns.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (int i = 0; i < depth; ++i) p[i] = alloc::slab_allocate(sz);
    for (int i = depth - 1; i >= 0; --i) alloc::slab_deallocate(p[i], sz);
  }
  EXPECT_EQ(tc->magazine_refills.load(std::memory_order_relaxed), refills0);
  EXPECT_EQ(tc->magazine_returns.load(std::memory_order_relaxed), returns0);
}

/// Freeing far more than the cache can hold returns whole magazines.
TEST(SlabMagazines, ReturnBatching) {
  constexpr std::size_t sz = 128;
  constexpr std::size_t n = alloc::magazine_capacity * 8;
  std::vector<void*> held;
  for (std::size_t i = 0; i < n; ++i) held.push_back(alloc::slab_allocate(sz));
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t returns0 =
      tc->magazine_returns.load(std::memory_order_relaxed);
  for (void* p : held) alloc::slab_deallocate(p, sz);
  const std::uint64_t returns =
      tc->magazine_returns.load(std::memory_order_relaxed) - returns0;
  // 8 magazines' worth freed; two stay cached (loaded + backup).
  EXPECT_GE(returns + 3, n / alloc::magazine_capacity);
  EXPECT_LE(returns, n / alloc::magazine_capacity);
}

// --- Cross-thread migration ------------------------------------------------

/// A block allocated here and freed on another thread (a stolen task frame's
/// lifecycle) migrates through the depot and stays balanced; the memory is
/// then re-servable on this thread.
TEST(SlabMigration, CrossThreadFreeBalances) {
  constexpr std::size_t sz = 256;
  constexpr std::size_t n = alloc::magazine_capacity * 4;
  const auto before = alloc::slab_totals();
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(alloc::slab_allocate(sz));
  }
  std::thread other([&] {
    for (void* p : blocks) alloc::slab_deallocate(p, sz);
  });
  other.join();
  const auto after = alloc::slab_totals();
  EXPECT_EQ(after.total_allocs() - before.total_allocs(), n);
  EXPECT_EQ(after.total_frees() - before.total_frees(), n);
  EXPECT_TRUE(after.balanced());
  // The migrated blocks are depot inventory again: a fresh burst on this
  // thread must not carve new slabs for this class.
  const std::uint64_t slabs0 = after.slabs_live;
  for (std::size_t i = 0; i < n; ++i) {
    blocks[i] = alloc::slab_allocate(sz);
  }
  for (void* p : blocks) alloc::slab_deallocate(p, sz);
  EXPECT_EQ(alloc::slab_totals().slabs_live, slabs0);
}

// --- Leak balance under chaos ----------------------------------------------

/// Every task frame, slot-arena chunk and reducer view allocated by a
/// chaos-perturbed parallel run is freed by the time the scheduler is torn
/// down, for every seed — the slab-level leak oracle of the stress suite.
TEST(SlabChaos, EightSeedSweepStaysBalanced) {
  constexpr std::uint64_t n = 1200;
  const std::uint64_t expected = n * (n - 1) / 2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::atomic<std::uint64_t> sum{0};
    {
      // Declared before the scheduler: the policy must outlive it.
      stress::seeded_chaos chaos(seed, 4);
      rt::scheduler sched(4);
      sched.install_chaos(&chaos);
      sched.run([&](rt::context& ctx) {
        rt::parallel_for(
            ctx, std::uint64_t{0}, n,
            [&](std::uint64_t i) {
              sum.fetch_add(i, std::memory_order_relaxed);
            },
            /*grain=*/1);
      });
      sched.remove_chaos();
    }
    EXPECT_EQ(sum.load(), expected) << "chaos seed " << seed;
    EXPECT_TRUE(alloc::slab_totals().balanced()) << "chaos seed " << seed;
  }
}

// --- Memlens layout certificate --------------------------------------------

template <typename D>
class SlabMemlens : public ::testing::Test {
 protected:
  using Ctx = screen::basic_screen_context<D>;
};
using Engines = ::testing::Types<screen::detector, screen::order_detector>;
TYPED_TEST_SUITE(SlabMemlens, Engines);

/// The false-sharing-freedom claim, measured rather than asserted: register
/// live slab blocks of every class as runtime-owned regions (zero `padding`
/// records — no two blocks share a line) and write two of them from
/// logically parallel strands (zero `false_sharing` records).
TYPED_TEST(SlabMemlens, SlabServedBlocksAreFalseSharingFree) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);

  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    for (int i = 0; i < 16; ++i) {
      blocks.emplace_back(alloc::slab_allocate(alloc::class_sizes[c]),
                          alloc::class_sizes[c]);
    }
  }
  screen::run_under_detector(d, [&](Ctx& ctx) {
    for (auto [p, sz] : blocks) ctx.note_lens_region(p, sz, "slab block");
    // Two sibling strands hammer different blocks of the smallest class —
    // the pattern that false-shares when an allocator packs two 64-byte
    // objects into one line.
    auto* a = static_cast<std::uint64_t*>(blocks[0].first);
    auto* b = static_cast<std::uint64_t*>(blocks[1].first);
    ctx.spawn([&](Ctx& c) {
      c.note_write(a, sizeof(*a), "worker A frame");
      *a = 1;
    });
    ctx.spawn([&](Ctx& c) {
      c.note_write(b, sizeof(*b), "worker B frame");
      *b = 2;
    });
    ctx.sync();
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());
  EXPECT_TRUE(ml.clean())
      << memlens::render_lenses(ml.records(), d.procedures());
  for (auto [p, sz] : blocks) alloc::slab_deallocate(p, sz);
}

// --- task_pool stat plumbing (satellite surface) ---------------------------

TEST(TaskPoolOversize, OversizeAllocsAreCounted) {
  const auto before = rt::task_pool_totals();
  constexpr std::size_t big = 8192;  // above the largest task class
  void* p = rt::task_allocate(big);
  rt::task_deallocate(p, big);
  const auto after = rt::task_pool_totals();
  EXPECT_EQ(after.oversize_allocs() - before.oversize_allocs(), 1u);
  EXPECT_EQ(after.oversize_frees() - before.oversize_frees(), 1u);
}

}  // namespace
}  // namespace cilkpp
