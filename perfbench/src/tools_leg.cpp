#include "tools_leg.hpp"

#include <cmath>
#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "cilkview/online.hpp"
#include "cilkview/profile.hpp"
#include "dag/recorder.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "graph/ref.hpp"
#include "solve.hpp"
#include "spans.hpp"
#include "workloads/fib.hpp"

namespace perfbench {
namespace {

using namespace cilkpp;
using spans::span;

constexpr unsigned kFibM = 22;           // fib(22): 28656 spawns
constexpr unsigned kScale = 9;           // 512 vertices
constexpr std::uint64_t kEdges = 4096;
constexpr std::uint64_t kGrain = 16;
// The tools programs are fixed inputs, as fib(n) is: a small seeded graph's
// detection cost moves by about 5% with its seed, as much as the changes
// this leg should resolve.
constexpr std::uint64_t kGraphSeed = 1;

bool same_counts(const cilkview::profile& a, const cilkview::profile& b) {
  return a.work == b.work && a.span == b.span &&
         a.burdened_span == b.burdened_span && a.strands == b.strands;
}

}  // namespace

struct tools_world::impl {
  impl()
      : g(graph::rmat_graph_serial(kScale, kEdges, kGraphSeed)),
        gt(graph::transpose_serial(g)) {
    pr_opt.iterations = 3;
    pr_opt.grain = kGrain;
    bc_opt.pivots = 4;
    bc_opt.seed = reaching_pivot_seed(g, bc_opt.pivots, kGraphSeed);
    bc_opt.grain = kGrain;
    pr_ref = graph::pagerank_serial(g, gt, pr_opt.damping, pr_opt.iterations)
                 .rank;
    bc_ref = graph::bc_serial(
        g, gt, graph::sample_pivots(g.vertices(), bc_opt.pivots, bc_opt.seed));
  }

  bool graph_ok(const graph::pagerank_result& pr, const graph::bc_result& bc) {
    if (pr.rank.size() != pr_ref.size()) return false;
    double l1 = 0;
    for (std::size_t i = 0; i < pr.rank.size(); ++i) {
      l1 += std::abs(pr.rank[i] - pr_ref[i]);
    }
    return l1 <= 1e-9 && bc.centrality == bc_ref;
  }

  /// One detection run of each program under engine D. A verdict is right
  /// only when it is clean (these programs are race-free), complete (no
  /// history spills) and the programs' own outputs check out.
  template <typename D>
  detect_result detect(attached a) {
    detect_result r;
    r.ok = true;
    const auto verdict = [&](D& d) {
      r.spills += d.stats().history_spills;
      r.ok = r.ok && !d.found_races() && d.stats().history_spills == 0;
      if constexpr (requires { d.relabel_count(); }) {
        r.relabels += d.relabel_count();
      }
    };
    {
      D d;
      analyzers<D> an(d, a);
      std::uint64_t value = 0;
      stopwatch sw;
      {
        span s(spans::name::run_under_detector);
        screen::run_under_detector(
            d, [&](screen::basic_screen_context<D>& ctx) {
              value = workloads::fib(ctx, kFibM, 0);
            });
      }
      r.fib_s = sw.elapsed_s();
      r.procedures = d.stats().procedures;
      r.ok = r.ok && value == workloads::fib_serial(kFibM);
      verdict(d);
    }
    {
      D d;
      analyzers<D> an(d, a);
      graph::pagerank_result pr;
      graph::bc_result bc;
      stopwatch sw;
      {
        span s(spans::name::run_under_detector);
        screen::run_under_detector(
            d, [&](screen::basic_screen_context<D>& ctx) {
              pr = graph::pagerank(ctx, g, gt, pr_opt);
              bc = graph::betweenness(ctx, g, gt, bc_opt);
            });
      }
      r.graph_s = sw.elapsed_s();
      r.accesses = d.stats().reads_checked + d.stats().writes_checked;
      r.ok = r.ok && graph_ok(pr, bc);
      verdict(d);
    }
    return r;
  }

  /// The lint or memlens analyzer attached to a detector for one run.
  template <typename D>
  struct analyzers {
    analyzers(D& d, attached a) {
#if CILKPP_LINT_ENABLED
      if (a == attached::lint) d.attach_lint(&lint);
#endif
#if CILKPP_MEMLENS_ENABLED
      if (a == attached::memlens) d.attach_memlens(&lens);
#endif
      (void)d;
      (void)a;
    }
    ~analyzers() {
#if CILKPP_LINT_ENABLED
      lint.finish();
#endif
#if CILKPP_MEMLENS_ENABLED
      lens.finish();
#endif
    }
#if CILKPP_LINT_ENABLED
    typename D::lint_analyzer lint;
#endif
#if CILKPP_MEMLENS_ENABLED
    typename D::memlens_analyzer lens;
#endif
  };

  graph::csr g, gt;
  graph::pagerank_options pr_opt;
  graph::bc_options bc_opt;
  std::vector<double> pr_ref, bc_ref;
  bool have_ref = false;
  cilkview::profile fib_ref, graph_ref;
};

tools_world::tools_world() : impl_(std::make_unique<impl>()) {
  (void)profile();  // fixes the reference counts
}

tools_world::~tools_world() = default;

detect_result tools_world::detect_bags(attached a) {
  return impl_->detect<screen::detector>(a);
}

detect_result tools_world::detect_order() {
  return impl_->detect<screen::order_detector>(attached::none);
}

profile_result tools_world::profile() {
  impl& w = *impl_;
  profile_result r;
  stopwatch sw;
  cilkview::online_analyzer a;
  std::uint64_t value = 0;
  {
    span s(spans::name::online_analyzer_run);
    a.run([&](cilkview::online_context& ctx) {
      value = workloads::fib(ctx, kFibM, 0);
    });
  }
  const cilkview::profile fib_p = a.result();
  dag::graph d;
  graph::pagerank_result pr;
  graph::bc_result bc;
  {
    span s(spans::name::dag_record);
    d = dag::record([&](dag::recorder_context& ctx) {
      pr = graph::pagerank(ctx, w.g, w.gt, w.pr_opt);
      bc = graph::betweenness(ctx, w.g, w.gt, w.bc_opt);
    });
  }
  cilkview::profile graph_p;
  {
    span s(spans::name::analyze_dag);
    graph_p = cilkview::analyze_dag(d);
  }
  r.seconds = sw.elapsed_s();
  r.strands = fib_p.strands + graph_p.strands;
  if (!w.have_ref) {
    w.fib_ref = fib_p;
    w.graph_ref = graph_p;
    w.have_ref = true;
  }
  r.ok = value == workloads::fib_serial(kFibM) && w.graph_ok(pr, bc) &&
         same_counts(fib_p, w.fib_ref) && same_counts(graph_p, w.graph_ref) &&
         fib_p.work > 0 && graph_p.span > 0;
  return r;
}

}  // namespace perfbench
