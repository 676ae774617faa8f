#include "ledger.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "alloc/slab.hpp"
#include "deque/chase_lev.hpp"
#include "hyper/reducers.hpp"
#include "pedigree/pedigree.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {
namespace {

using namespace cilkpp;

constexpr int kReps = 15;

/// Median over kReps batches of the per-operation time of fn(batch).
template <typename Fn>
double batch_median_ns(std::size_t batch, Fn&& fn) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    stopwatch sw;
    fn(batch);
    per_op.push_back(static_cast<double>(sw.elapsed_ns()) /
                     static_cast<double>(batch));
  }
  return median(per_op);
}

/// The closure fib's spawn carries ([&a, n, cutoff]); the spawn task the
/// runtime allocates for it has the size the allocator leg times.
struct fib_like_closure {
  std::uint64_t* a = nullptr;
  unsigned n = 0;
  unsigned cutoff = 0;
  void operator()(rt::context&) const {}
};
constexpr std::size_t kSpawnTaskSize = sizeof(rt::spawn_task<fib_like_closure>);

double pair_ns() {
  rt::scheduler sched(1);
  double ns = 0;
  sched.run([&](rt::context& ctx) {
    for (int i = 0; i < 10'000; ++i) {  // warm the slab magazines
      ctx.spawn([](rt::context&) {});
      ctx.sync();
    }
    ns = batch_median_ns(100'000, [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        ctx.spawn([](rt::context&) {});
        ctx.sync();
      }
    });
  });
  return ns;
}

double push_pop_ns() {
  chase_lev_deque<void*> d;
  int x = 0;
  void* p = &x;
  return batch_median_ns(1 << 20, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      d.push_bottom(p);
      auto r = d.pop_bottom();
      do_not_optimize(r);
    }
  });
}

double steal_ns() {
  chase_lev_deque<void*> d;
  int x = 0;
  constexpr std::size_t n = 1 << 16;
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < n; ++i) d.push_bottom(&x);
    stopwatch sw;
    for (std::size_t i = 0; i < n; ++i) {
      void* out = nullptr;
      const steal_result s = d.steal(out);
      do_not_optimize(s);
      do_not_optimize(out);
    }
    per_op.push_back(static_cast<double>(sw.elapsed_ns()) / n);
  }
  return median(per_op);
}

double alloc_free_ns() {
  return batch_median_ns(1 << 20, [](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      void* p = alloc::slab_allocate(kSpawnTaskSize);
      do_not_optimize(p);
      alloc::slab_deallocate(p, kSpawnTaskSize);
    }
  });
}

double mix_ns() {
  std::uint64_t h = ped::root_seed;
  const double ns = batch_median_ns(1 << 22, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h = ped::mix(h, i);
    do_not_optimize(h);
  });
  do_not_optimize(h);
  return ns;
}

/// An empty run on a pool whose workers have had time to park.
double run_empty_us(unsigned nproc) {
  rt::scheduler sched(nproc);
  std::vector<double> us;
  for (int r = 0; r < 25; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stopwatch sw;
    sched.run([](rt::context&) {});
    us.push_back(ns_to_us(sw.elapsed_ns()));
  }
  return median(us);
}

double pfor_iter_ns(unsigned nproc) {
  rt::scheduler sched(nproc);
  constexpr std::uint64_t n = 1 << 16;
  std::vector<double> per_iter;
  for (int r = 0; r < kReps; ++r) {
    stopwatch sw;
    sched.run([](rt::context& ctx) {
      rt::parallel_for(ctx, std::uint64_t{0}, n,
                       [](std::uint64_t i) { do_not_optimize(i); }, 1);
    });
    per_iter.push_back(static_cast<double>(sw.elapsed_ns()) / n);
  }
  return median(per_iter);
}

/// An opadd reducer update minus a plain add, at P = 1.
double update_ns() {
  rt::scheduler sched(1);
  hyper::reducer_opadd<std::uint64_t> r;
  double plain = 0, reduced = 0;
  sched.run([&](rt::context& ctx) {
    plain = batch_median_ns(1 << 20, [&](std::size_t n) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += i;
        do_not_optimize(sum);
      }
    });
    reduced = batch_median_ns(1 << 20, [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) r.view(ctx) += i;
    });
  });
  return reduced - plain;
}

/// A grain-1 parallel_for whose every leaf updates a reducer (so every
/// spawned leaf delivers a view at its join) against the same loop with
/// no reducer, per spawned leaf, at P = nproc.
double fold_ns_per_view(unsigned nproc) {
  rt::scheduler sched(nproc);
  constexpr std::uint64_t n = 1 << 15;
  hyper::reducer_opadd<std::uint64_t> r;
  std::vector<double> with_ns, without_ns;
  std::uint64_t spawns = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    stopwatch sw;
    sched.run([&](rt::context& ctx) {
      rt::parallel_for(ctx, std::uint64_t{0}, n,
                       [](rt::context&, std::uint64_t i) { do_not_optimize(i); },
                       1);
    });
    without_ns.push_back(static_cast<double>(sw.elapsed_ns()));
    sched.reset_stats();
    sw.reset();
    sched.run([&](rt::context& ctx) {
      rt::parallel_for(ctx, std::uint64_t{0}, n,
                       [&](rt::context& leaf, std::uint64_t i) {
                         r.view(leaf) += i;
                       },
                       1);
    });
    with_ns.push_back(static_cast<double>(sw.elapsed_ns()));
    spawns = sched.stats().spawns;
  }
  do_not_optimize(r.value());
  return spawns > 0 ? (median(with_ns) - median(without_ns)) /
                          static_cast<double>(spawns)
                    : 0;
}

}  // namespace

void measure_ledger(unsigned nproc, metric_sink& m) {
  const double pair = pair_ns();
  const double push_pop = push_pop_ns();
  const double alloc_free = alloc_free_ns();
  const double mix = mix_ns();
  m.set("runtime.pair_ns", pair, "ns");
  m.set("deque.push_pop_ns", push_pop, "ns");
  m.set("alloc.alloc_free_ns", alloc_free, "ns");
  m.set("pedigree.mix_ns", mix, "ns");
  m.set("runtime.pair_residual_ns", pair - push_pop - alloc_free - mix, "ns");
  m.set("deque.steal_ns", steal_ns(), "ns");
  m.set("runtime.run_empty_us", run_empty_us(nproc), "us");
  m.set("runtime.pfor_iter_ns", pfor_iter_ns(nproc), "ns");
  m.set("hyper.update_ns", update_ns(), "ns");
  m.set("hyper.fold_ns_per_view", fold_ns_per_view(nproc), "ns");
}

}  // namespace perfbench
