#include "solve.hpp"

#include <algorithm>
#include <cmath>

#include "cilkview/online.hpp"
#include "dag/recorder.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "graph/ref.hpp"
#include "runtime/serial.hpp"
#include "spans.hpp"
#include "workloads/fib.hpp"

namespace perfbench {
namespace {

using namespace cilkpp;
using spans::span;

std::uint64_t fib_iterative(unsigned n) {
  std::uint64_t a = 0, b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

class fib_family final : public solve_family {
 public:
  explicit fib_family(unsigned n) : n_(n), expected_(fib_iterative(n)) {}

  void build(rt::scheduler&) override {}

  trial solve(rt::scheduler& sched) override {
    span s(spans::name::scheduler_run);
    stopwatch sw;
    const std::uint64_t r = sched.run(
        [n = n_](rt::context& ctx) { return workloads::fib(ctx, n, 0); });
    const double secs = sw.elapsed_s();
    return {check(r), secs};
  }

  trial solve_serial() override {
    rt::serial_context ctx;
    stopwatch sw;
    const std::uint64_t r = workloads::fib(ctx, n_, 0);
    const double secs = sw.elapsed_s();
    return {check(r), secs};
  }

  cilkview::profile profile() override {
    cilkview::online_analyzer a;
    {
      span s(spans::name::online_analyzer_run);
      a.run([n = n_](cilkview::online_context& ctx) {
        (void)workloads::fib(ctx, n, 0);
      });
    }
    return a.result();
  }

  // fib(n) spawns once per internal node of its call tree: fib(n+1) - 1.
  std::uint64_t exact_spawns() const override {
    return fib_iterative(n_ + 1) - 1;
  }

 private:
  bool check(std::uint64_t r) {
    if (take_fault()) r ^= 1;
    if (r != expected_) {
      return fail("fib(" + std::to_string(n_) + ") = " + std::to_string(r) +
                  ", expected " + std::to_string(expected_));
    }
    return true;
  }

  unsigned n_;
  std::uint64_t expected_;
};

class graph_family final : public solve_family {
 public:
  graph_family(unsigned scale, std::uint64_t edges, std::uint64_t seed)
      : scale_(scale), edges_(edges), seed_(seed) {
    pr_opt_.iterations = 10;
    pr_opt_.grain = kGrain;
    bc_opt_.pivots = 4;
    bc_opt_.grain = kGrain;
    ref_g_ = graph::rmat_graph_serial(scale, edges, seed);
    ref_gt_ = graph::transpose_serial(ref_g_);
    bc_opt_.seed = reaching_pivot_seed(ref_g_, bc_opt_.pivots, seed);
    pr_ref_ = graph::pagerank_serial(ref_g_, ref_gt_, pr_opt_.damping,
                                     pr_opt_.iterations)
                  .rank;
    bc_ref_ = graph::bc_serial(
        ref_g_, ref_gt_,
        graph::sample_pivots(ref_g_.vertices(), bc_opt_.pivots, bc_opt_.seed));
  }

  void build(rt::scheduler& sched) override {
    stopwatch sw;
    {
      span s(spans::name::rmat_graph);
      g_ = sched.run([&](rt::context& ctx) {
        return graph::rmat_graph(ctx, scale_, edges_, seed_, {}, kGrain);
      });
    }
    {
      span s(spans::name::transpose);
      gt_ = sched.run(
          [&](rt::context& ctx) { return graph::transpose(ctx, g_, kGrain); });
    }
    build_s_.push_back(sw.elapsed_s());
    build_ok_ = g_ == ref_g_ && gt_ == ref_gt_;
  }

  bool build_checked() const override { return build_ok_; }

  trial solve(rt::scheduler& sched) override {
    const unsigned p = sched.num_workers();
    graph::pagerank_result pr;
    graph::bc_result bc;
    double pr_s = 0, bc_s = 0;
    stopwatch total;
    {
      span s(spans::name::scheduler_run);
      sched.run([&](rt::context& ctx) {
        stopwatch sw;
        {
          span k(spans::name::pagerank);
          pr = graph::pagerank(ctx, g_, gt_, pr_opt_);
        }
        pr_s = sw.elapsed_s();
        sw.reset();
        {
          span k(spans::name::betweenness);
          bc = graph::betweenness(ctx, g_, gt_, bc_opt_);
        }
        bc_s = sw.elapsed_s();
      });
    }
    const double secs = total.elapsed_s();
    (p == 1 ? pr_p1_s_ : pr_pn_s_).push_back(pr_s);
    (p == 1 ? bc_p1_s_ : bc_pn_s_).push_back(bc_s);
    bool ok = check(pr.rank, bc.centrality);
    // Deterministic by construction: every P gives the bits P = 1 gave.
    if (ok && p == 1 && p1_rank_.empty()) p1_rank_ = pr.rank;
    if (ok && !p1_rank_.empty() && pr.rank != p1_rank_) {
      ok = fail("pagerank at P=" + std::to_string(p) +
                " differs bitwise from P=1");
    }
    return {ok, secs};
  }

  trial solve_serial() override {
    rt::serial_context ctx;
    stopwatch sw;
    const graph::pagerank_result pr = graph::pagerank(ctx, g_, gt_, pr_opt_);
    const graph::bc_result bc = graph::betweenness(ctx, g_, gt_, bc_opt_);
    const double secs = sw.elapsed_s();
    return {check(pr.rank, bc.centrality), secs};
  }

  cilkview::profile profile() override {
    dag::graph d;
    {
      span s(spans::name::dag_record);
      d = dag::record([&](dag::recorder_context& ctx) {
        (void)graph::pagerank(ctx, g_, gt_, pr_opt_);
        (void)graph::betweenness(ctx, g_, gt_, bc_opt_);
      });
    }
    span s(spans::name::analyze_dag);
    return cilkview::analyze_dag(d);
  }

  void report_layers(metric_sink& m, unsigned) const override {
    m.set("graph.build_s", median(build_s_), "s");
    m.set("graph.pagerank_s", median(pr_pn_s_), "s");
    m.set("graph.bc_s", median(bc_pn_s_), "s");
    m.set("graph.pagerank_p1_s", median(pr_p1_s_), "s");
    m.set("graph.bc_p1_s", median(bc_p1_s_), "s");
    // Nominal traversed edges: each PageRank sweep visits every edge once,
    // each BC pivot twice (forward BFS, backward dependency pass).
    const double edges = static_cast<double>(ref_g_.edges()) *
                         (pr_opt_.iterations + 2.0 * bc_opt_.pivots);
    const double secs = median(pr_pn_s_) + median(bc_pn_s_);
    m.set("graph.mteps", secs > 0 ? edges / secs / 1e6 : 0, "Medge/s");
    // Computed, not measured: a PageRank sweep writes contrib[k] (8 B), and
    // the gather reads edge_ref[k] (8 B) and contrib[edge_ref[k]] (8 B).
    m.set("graph.bytes_per_edge", 24, "B");
  }

 private:
  static constexpr std::uint64_t kGrain = 256;

  bool check(const std::vector<double>& rank,
             const std::vector<double>& centrality) {
    if (rank.size() != pr_ref_.size()) return fail("pagerank: wrong size");
    double l1 = 0;
    for (std::size_t i = 0; i < rank.size(); ++i) {
      l1 += std::abs(rank[i] - pr_ref_[i]);
    }
    if (take_fault()) l1 = 1;
    if (!(l1 <= 1e-9)) {
      return fail("pagerank L1 vs pagerank_serial = " + std::to_string(l1));
    }
    if (centrality != bc_ref_) return fail("bc differs bitwise from bc_serial");
    return true;
  }

  unsigned scale_;
  std::uint64_t edges_;
  std::uint64_t seed_;
  graph::pagerank_options pr_opt_;
  graph::bc_options bc_opt_;
  graph::csr ref_g_, ref_gt_, g_, gt_;
  std::vector<double> pr_ref_, bc_ref_, p1_rank_;
  bool build_ok_ = false;
  std::vector<double> build_s_, pr_pn_s_, bc_pn_s_, pr_p1_s_, bc_p1_s_;
};

}  // namespace

std::uint64_t reaching_pivot_seed(const graph::csr& g, std::uint32_t pivots,
                                  std::uint64_t seed) {
  const auto reaches = [&](std::uint32_t v) {
    std::uint64_t n = 0;
    for (std::uint32_t d : graph::bfs_serial(g, v)) n += d != graph::bc_unreachable;
    return 4 * n >= g.vertices();
  };
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    const std::uint64_t s = ped::mix(seed, k);
    bool all = true;
    for (std::uint32_t v : graph::sample_pivots(g.vertices(), pivots, s)) {
      if (!reaches(v)) {
        all = false;
        break;
      }
    }
    if (all) return s;
  }
  return seed;
}

std::unique_ptr<solve_family> make_fib_family(unsigned n) {
  return std::make_unique<fib_family>(n);
}

std::unique_ptr<solve_family> make_graph_family(unsigned scale,
                                                std::uint64_t edges,
                                                std::uint64_t seed) {
  return std::make_unique<graph_family>(scale, edges, seed);
}

void run_solve_rounds(solve_family& f, rt::scheduler& sp, rt::scheduler& s1,
                      double seconds, cpu_rotation& rot, verdicts& v,
                      solve_times& out) {
  // Each engine gets an equal share of the time, so a fast engine gets
  // more trials rather than idling behind a slow one.
  double spent[3] = {0, 0, 0};
  const budget b(seconds, 3);
  for (std::size_t i = 0; b.more(i); ++i) {
    const int e = static_cast<int>(std::min_element(spent, spent + 3) - spent);
    rot.next();
    const solve_family::trial t =
        e == 0 ? f.solve(sp) : e == 1 ? f.solve(s1) : f.solve_serial();
    spent[e] += t.seconds;
    const char* leg = e == 0 ? "tp" : e == 1 ? "t1" : "ts";
    (e == 0 ? out.tp : e == 1 ? out.t1 : out.ts).push_back(t.seconds);
    v.record(t.ok, std::string(leg) + ": " + f.failure());
  }
}

}  // namespace perfbench
