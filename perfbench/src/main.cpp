// perfbench: the repository benchmark's measuring binary. One process runs
// one workload (a solve program family, plus the serve and tools legs) for
// one seed and prints one JSON document on its last stdout line.
//
//   perfbench --workload fib|graph --seed N --seconds S --trace 0|1
//             --serve-rate R [--inject-fault]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. run.py builds and drives
// it; see README.md for every metric's definition.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "alloc/slab.hpp"
#include "ledger.hpp"
#include "lint/lint_types.hpp"
#include "memlens/memlens_types.hpp"
#include "perfbench.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "serve_leg.hpp"
#include "solve.hpp"
#include "spans.hpp"
#include "support/stats.hpp"
#include "tools_leg.hpp"
#include "trace/session.hpp"

namespace perfbench {

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

cpu_rotation::cpu_rotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(0);
}

void cpu_rotation::next() {
  (void)cilkpp::rt::scheduler::set_thread_affinity({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

void cpu_rotation::release() {
  (void)cilkpp::rt::scheduler::set_thread_affinity(cpus_);
}

namespace {

using namespace cilkpp;

// Workload inputs. fib's input is fixed (its time must not vary with the
// seed); the graph is a seeded RMAT graph of fixed size.
constexpr unsigned kFibN = 30;        // 1,346,268 spawns per solve
constexpr unsigned kTraceFibN = 22;   // traced fib: 28,656 spawns
constexpr unsigned kGraphScale = 17;  // 131,072 vertices
constexpr std::uint64_t kGraphEdges = 1'000'000;

/// The run's inputs and reference answers: built once, before any set-up
/// is timed.
struct inputs {
  std::unique_ptr<solve_family> fam;
  std::shared_ptr<const serve_inputs> jobs;
  tools_world tools;
};

/// What one set-up constructs; the measured legs run on it.
struct world {
  std::unique_ptr<rt::scheduler> sp;  ///< P = nproc
  std::unique_ptr<rt::scheduler> s1;  ///< P = 1
  std::unique_ptr<serve_world> serve;
};

void record_tools(verdicts& v, const detect_result& r, const char* engine) {
  v.record(r.ok, std::string(engine) +
                     ": detector verdict wrong or incomplete (races, "
                     "history spills or a wrong program output)");
}

/// Everything before the first timed trial: schedulers, the serving
/// runtimes and server, inputs built through the library, and a warm-up
/// call of every leg.
world set_up(const options& opt, inputs& in, cpu_rotation& rot, verdicts& v) {
  // New threads inherit the creating thread's CPU mask, so the pools are
  // made unpinned.
  rot.release();
  world w;
  {
    spans::span s(spans::name::scheduler_ctor);
    w.sp = std::make_unique<rt::scheduler>(opt.nproc);
  }
  {
    spans::span s(spans::name::scheduler_ctor);
    w.s1 = std::make_unique<rt::scheduler>(1);
  }
  solve_family& fam = *in.fam;
  fam.build(*w.sp);
  v.record(fam.build_checked(), "graph build differs from the serial builders");
  w.serve = std::make_unique<serve_world>(in.jobs);
  w.serve->warm_up(v);
  // The warm-up calls rotate CPUs as the timed trials do. P = 1 first: its
  // output fixes the bits every other P must reproduce.
  rot.next();
  const bool t1 = fam.solve(*w.s1).ok;
  v.record(t1, "warm-up t1: " + fam.failure());
  rot.next();
  const bool tp = fam.solve(*w.sp).ok;
  v.record(tp, "warm-up tp: " + fam.failure());
  rot.next();
  const bool ts = fam.solve_serial().ok;
  v.record(ts, "warm-up ts: " + fam.failure());
  rot.next();
  record_tools(v, in.tools.detect_bags(), "warm-up SP-bags");
  rot.next();
  record_tools(v, in.tools.detect_order(), "warm-up SP-order");
  rot.next();
  v.record(in.tools.profile().ok, "warm-up cilkview profile");
  rot.release();
  return w;
}

struct details {
  json_writer* w;
  void spread(const char* name, const std::vector<double>& xs) {
    w->key(name);
    w->begin_object();
    w->field("n", static_cast<std::uint64_t>(xs.size()));
    w->field("median", median(xs));
    w->field("q1", quantile(xs, 0.25));
    w->field("q3", quantile(xs, 0.75));
    w->field("min", quantile(xs, 0));
    w->field("max", quantile(xs, 1));
    w->end_object();
  }
};

/// SP-bags, SP-order and profile runs for `seconds`, an equal share of
/// the time each (at least one run each), each on the next CPU of `rot`.
void run_tools_rounds(tools_world& tools, double seconds, cpu_rotation& rot,
                      verdicts& v, std::vector<double>& bags,
                      std::vector<double>& order, std::vector<double>& prof) {
  double spent[3] = {0, 0, 0};
  const budget b(seconds, 3);
  for (std::size_t i = 0; b.more(i); ++i) {
    const auto e = std::min_element(spent, spent + 3) - spent;
    rot.next();
    if (e == 0) {
      const detect_result r = tools.detect_bags();
      record_tools(v, r, "SP-bags");
      bags.push_back(r.seconds());
      spent[0] += r.seconds();
    } else if (e == 1) {
      const detect_result r = tools.detect_order();
      record_tools(v, r, "SP-order");
      order.push_back(r.seconds());
      spent[1] += r.seconds();
    } else {
      const profile_result r = tools.profile();
      v.record(r.ok, "cilkview profile differs from its reference");
      prof.push_back(r.seconds);
      spent[2] += r.seconds;
    }
  }
}

/// The rounds of the end-to-end run. Every other round starts with a fresh
/// set-up, so set-ups are sampled across the run as every leg is; the
/// round's remaining time, but at least 60% of a round, goes to the legs.
/// `w` ends as the last world.
void run_end_to_end(const options& opt, inputs& in, world& w,
                    cpu_rotation& rot, verdicts& v, metric_sink& m,
                    json_writer& out) {
  // The legs take turns in short slices across the whole run, so a slow
  // spell on a shared host lands in a minority of every leg's samples.
  const std::size_t rounds =
      std::max<std::size_t>(4, static_cast<std::size_t>(opt.seconds / 2.5));
  const double slice = opt.seconds / static_cast<double>(rounds);
  solve_times st;
  std::vector<double> setup_s, jobs_per_s, p50, p99, late, bags, order, prof;
  std::uint64_t jobs = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const stopwatch round;
    if (r % 2 == 0) {
      if (w.serve) w.serve->audit(v);
      w = world{};
      const stopwatch sw;
      w = set_up(opt, in, rot, v);
      setup_s.push_back(sw.elapsed_s());
    }
    const double legs = std::max(0.6 * slice, slice - round.elapsed_s());

    run_solve_rounds(*in.fam, *w.sp, *w.s1, 0.45 * legs, rot, v, st);
    rot.release();

    const closed_loop_result closed =
        w.serve->closed_loop(0.1 * legs, opt.nproc, v);
    jobs_per_s.insert(jobs_per_s.end(), closed.window_jobs_per_s.begin(),
                      closed.window_jobs_per_s.end());
    const open_loop_result open =
        w.serve->open_loop(0.1 * legs, opt.serve_rate, v);
    p50.push_back(quantile(open.latency_ms, 0.5));
    p99.push_back(quantile(open.latency_ms, 0.99));
    late.push_back(quantile(open.late_ms, 0.99));
    jobs += closed.jobs + open.latency_ms.size();

    run_tools_rounds(in.tools, 0.35 * legs, rot, v, bags, order, prof);
  }
  rot.release();
  w.serve->audit(v);

  m.set("tp_s", median(st.tp), "s");
  m.set("t1_s", median(st.t1), "s");
  m.set("ts_s", median(st.ts), "s");
  m.set("jobs_per_s", median(jobs_per_s), "jobs/s");
  m.set("job_p50_ms", median(p50), "ms");
  m.set("detect_bags_s", median(bags), "s");
  m.set("detect_order_s", median(order), "s");
  m.set("profile_s", median(prof), "s");
  m.set("setup_s", median(setup_s), "s");
  m.set("rss_peak_mib", peak_rss_mib(), "MiB");

  out.key("details");
  out.begin_object();
  details d{&out};
  d.spread("setup_s", setup_s);
  d.spread("tp_s", st.tp);
  d.spread("t1_s", st.t1);
  d.spread("ts_s", st.ts);
  d.spread("jobs_per_s", jobs_per_s);
  d.spread("job_p50_ms_per_slice", p50);
  d.spread("job_p99_ms_per_slice", p99);
  d.spread("gen_late_ms_p99_per_slice", late);
  d.spread("detect_bags_s", bags);
  d.spread("detect_order_s", order);
  d.spread("profile_s", prof);
  out.field("rounds", static_cast<std::uint64_t>(rounds));
  out.field("serve_rate", opt.serve_rate);
  out.field("serve_jobs", jobs);
  out.field("closed_loop_clients", opt.nproc);
  out.end_object();
}

/// Traced against untraced tp on the trace input, with trace::session
/// rings sized from the solve's spawn count so that nothing is dropped.
void trace_leg(solve_family& tf, rt::scheduler& sp, double seconds,
               verdicts& v, metric_sink& m) {
  sp.reset_stats();
  v.record(tf.solve(sp).ok, "trace sizing solve: " + tf.failure());
  const std::uint64_t spawns = sp.stats().spawns;
  // Each spawned frame records at most spawn, begin, end, two sync and a
  // steal event; one worker may record every event of the solve.
  trace::session_options so;
  so.ring_capacity = std::bit_ceil(8 * spawns + 4096);
  std::vector<double> plain, traced;
  std::uint64_t dropped = 0;
  trace::timeline tl;
  const budget b(seconds, 5);
  for (std::size_t i = 0; b.more(i); ++i) {
    const solve_family::trial u = tf.solve(sp);
    v.record(u.ok, "untraced solve: " + tf.failure());
    plain.push_back(u.seconds);
    trace::session sess(sp, so);
    const solve_family::trial t = tf.solve(sp);
    v.record(t.ok, "traced solve: " + tf.failure());
    traced.push_back(t.seconds);
    sess.stop();
    dropped += sess.dropped();
    tl = sess.assemble();
  }
  double busy = 0, sched = 0, idle = 0;
  for (const trace::worker_lane& l : tl.lanes) {
    busy += static_cast<double>(l.busy_ns);
    sched += static_cast<double>(l.scheduling_ns);
    idle += static_cast<double>(l.idle_ns);
  }
  const double total = busy + sched + idle;
  const bool partial = dropped > 0 || !trace::session::compiled_in;
  m.set("runtime.busy_frac", total > 0 ? busy / total : 0, "ratio", partial);
  m.set("runtime.sched_frac", total > 0 ? sched / total : 0, "ratio", partial);
  m.set("runtime.idle_frac", total > 0 ? idle / total : 0, "ratio", partial);
  m.set("trace.overhead_frac", median(traced) / median(plain) - 1, "ratio",
        partial);
  m.set("trace.dropped", static_cast<double>(dropped), "count");
}

void run_traced(const options& opt, inputs& in, world& w, cpu_rotation& rot,
                verdicts& v, metric_sink& m, json_writer& out) {
  solve_family& fam = *in.fam;
  const double S = opt.seconds;
  const unsigned P = w.sp->num_workers();
  measure_ledger(P, m);

  // --- Solve legs with the scheduler and allocator counters. ---
  const alloc::slab_stats slab0 = alloc::slab_totals();
  const rt::task_pool_stats pool0 = rt::task_pool_totals();
  w.sp->reset_stats();
  w.s1->reset_stats();
  solve_times st;
  double tp_cpu = 0, tp_wall = 0;
  const budget b(0.2 * S, 3);
  for (std::size_t i = 0; b.more(i); ++i) {
    rot.next();
    const double c0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const solve_family::trial tp = fam.solve(*w.sp);
    tp_wall += ns_to_s(now_ns() - t0);
    tp_cpu += process_cpu_s() - c0;
    v.record(tp.ok, "tp: " + fam.failure());
    st.tp.push_back(tp.seconds);
    const solve_family::trial t1 = fam.solve(*w.s1);
    v.record(t1.ok, "t1: " + fam.failure());
    st.t1.push_back(t1.seconds);
    const solve_family::trial ts = fam.solve_serial();
    v.record(ts.ok, "ts: " + fam.failure());
    st.ts.push_back(ts.seconds);
  }
  rot.release();
  const alloc::slab_stats slab1 = alloc::slab_totals();
  const rt::task_pool_stats pool1 = rt::task_pool_totals();
  const rt::worker_stats sp_stats = w.sp->stats();
  const rt::worker_stats s1_stats = w.s1->stats();
  const auto n_tp = static_cast<double>(st.tp.size());
  const auto n_t1 = static_cast<double>(st.t1.size());
  const double spawns_tp = static_cast<double>(sp_stats.spawns) / n_tp;
  const double spawns_t1 = static_cast<double>(s1_stats.spawns) / n_t1;
  if (fam.exact_spawns() != 0) {
    v.record(sp_stats.spawns == fam.exact_spawns() * st.tp.size() &&
                 s1_stats.spawns == fam.exact_spawns() * st.t1.size(),
             "scheduler spawn count differs from the program's exact count");
  }
  const double tp = median(st.tp), t1 = median(st.t1), ts = median(st.ts);
  m.set("runtime.spawns", spawns_tp, "count");
  m.set("runtime.ns_per_spawn", spawns_t1 > 0 ? t1 * 1e9 / spawns_t1 : 0, "ns");
  m.set("runtime.t1_over_ts", t1 / ts, "ratio");
  m.set("runtime.speedup", ts / tp, "ratio");

  const cilkview::profile prof = fam.profile();
  const double work = static_cast<double>(prof.work);
  const double span = static_cast<double>(prof.span);
  const double burdened = static_cast<double>(prof.burdened_span);
  m.set("cilkview.work", work, "count");
  m.set("cilkview.span", span, "count");
  m.set("cilkview.burdened_span", burdened, "count");
  m.set("cilkview.parallelism", prof.parallelism(), "ratio");
  const double bound = t1 / P + (work > 0 ? t1 * burdened / work : 0);
  m.set("runtime.tp_over_bound", tp / bound, "ratio");
  const double steals = static_cast<double>(sp_stats.steals) / n_tp;
  const double attempts = static_cast<double>(sp_stats.steal_attempts) / n_tp;
  m.set("runtime.steals", steals, "count");
  m.set("runtime.steal_attempts", attempts, "count");
  m.set("runtime.steal_hit_ratio", attempts > 0 ? steals / attempts : 0, "ratio");
  m.set("runtime.steals_per_p_span", span > 0 ? steals / (P * span) : 0, "ratio");
  m.set("runtime.cpu_per_wall", tp_cpu / tp_wall, "ratio");
  m.set("runtime.peak_deque", static_cast<double>(sp_stats.peak_deque), "count");
  m.set("runtime.max_frame_depth", static_cast<double>(sp_stats.max_frame_depth),
        "count");
  m.set("alloc.system_allocs_timed",
        static_cast<double>(slab1.system_allocs - slab0.system_allocs), "count");
  const double all_spawns = static_cast<double>(sp_stats.spawns + s1_stats.spawns);
  m.set("alloc.refills_per_mspawn",
        all_spawns > 0 ? static_cast<double>(slab1.magazine_refills -
                                             slab0.magazine_refills) *
                             1e6 / all_spawns
                       : 0,
        "count");

  std::uint64_t reused = 0;
  for (std::size_t c = 0; c < std::size(pool1.classes); ++c) {
    reused += pool1.classes[c].reused - pool0.classes[c].reused;
  }
  const std::uint64_t pool_allocs = pool1.total_allocs() - pool0.total_allocs();
  m.set("alloc.pool_reuse_frac",
        pool_allocs > 0 ? static_cast<double>(reused) /
                              static_cast<double>(pool_allocs)
                        : 0,
        "ratio");

  // --- trace::session overhead and the busy/scheduling/idle split. ---
  std::unique_ptr<solve_family> trace_fib;
  if (opt.workload == "fib") trace_fib = make_fib_family(kTraceFibN);
  trace_leg(trace_fib ? *trace_fib : fam, *w.sp, 0.15 * S, v, m);

  // --- The graph module's layer numbers (its own input on fib). ---
  if (opt.workload == "graph") {
    fam.report_layers(m, P);
  } else {
    std::unique_ptr<solve_family> g =
        make_graph_family(kGraphScale, kGraphEdges, opt.seed);
    g->build(*w.sp);
    v.record(g->build_checked(), "graph build differs from the serial builders");
    for (rt::scheduler* s : {w.s1.get(), w.sp.get(), w.s1.get(), w.sp.get()}) {
      v.record(g->solve(*s).ok, "graph probe: " + g->failure());
    }
    g->report_layers(m, P);
  }

  // --- Serve. ---
  w.serve->reset_stats();
  (void)w.serve->closed_loop(0.1 * S, opt.nproc, v);
  w.serve->reset_stats();
  const open_loop_result open = w.serve->open_loop(0.1 * S, opt.serve_rate, v);
  w.serve->report_layers(m);
  w.serve->audit(v);
  m.set("serve.admit_us_p50", median(open.admit_us), "us");
  m.set("serve.gen_late_ms_p99", quantile(open.late_ms, 0.99), "ms");
  // Open-loop p99 does not repeat within a tenth from run to run on a
  // shared host, so it is a per-layer number, not an end-to-end one.
  m.set("serve.job_p99_ms", quantile(open.latency_ms, 0.99), "ms");

  // --- Tools, with lint and memlens attached to SP-bags in turn. ---
  std::vector<double> bags_s, lint_s, lens_s, order_s, prof_s;
  detect_result bags{}, order{};
  std::uint64_t spills = 0, strands = 0;
  const budget tb(0.15 * S, 3);
  for (std::size_t i = 0; tb.more(i); ++i) {
    rot.next();
    bags = in.tools.detect_bags();
    record_tools(v, bags, "SP-bags");
    bags_s.push_back(bags.seconds());
    const detect_result lint = in.tools.detect_bags(attached::lint);
    record_tools(v, lint, "SP-bags + lint");
    lint_s.push_back(lint.seconds());
    const detect_result lens = in.tools.detect_bags(attached::memlens);
    record_tools(v, lens, "SP-bags + memlens");
    lens_s.push_back(lens.seconds());
    order = in.tools.detect_order();
    record_tools(v, order, "SP-order");
    order_s.push_back(order.seconds());
    spills += bags.spills + lint.spills + lens.spills + order.spills;
    const profile_result p = in.tools.profile();
    v.record(p.ok, "cilkview profile differs from its reference");
    prof_s.push_back(p.seconds);
    strands = p.strands;
  }
  rot.release();
  // Per-access and per-procedure costs use each leg's own program: the
  // graph program's checked accesses, the fib program's procedures.
  const auto per = [](double s, std::uint64_t n) {
    return n > 0 ? s * 1e9 / static_cast<double>(n) : 0;
  };
  m.set("screen.bags_ns_per_access", per(bags.graph_s, bags.accesses), "ns");
  m.set("screen.order_ns_per_access", per(order.graph_s, order.accesses), "ns");
  m.set("screen.bags_ns_per_proc", per(bags.fib_s, bags.procedures), "ns");
  m.set("screen.order_ns_per_proc", per(order.fib_s, order.procedures), "ns");
  m.set("screen.order_relabels", static_cast<double>(order.relabels), "count");
  m.set("screen.history_spills", static_cast<double>(spills), "count");
  m.set("lint.attached_slowdown", median(lint_s) / median(bags_s), "ratio");
  m.set("memlens.attached_slowdown", median(lens_s) / median(bags_s), "ratio");
  m.set("cilkview.ns_per_strand", per(median(prof_s), strands), "ns");
  m.set("alloc.slabs_live_mib",
        static_cast<double>(alloc::slab_totals().slabs_live) *
            static_cast<double>(alloc::slab_bytes) / (1024.0 * 1024.0),
        "MiB");

  // --- Self time per wrapped library call. ---
  const std::vector<spans::summary> sums = spans::summarize();
  out.key("spans");
  out.begin_object();
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const spans::summary& s = sums[i];
    const char* n = spans::to_string(static_cast<spans::name>(i));
    m.set(std::string("span.") + n + ".self_us",
          s.calls > 0 ? s.self_s / static_cast<double>(s.calls) * 1e6 : 0,
          "us");
    out.key(n);
    out.begin_object();
    out.field("calls", s.calls);
    out.field("total_s", s.total_s);
    out.field("self_s", s.self_s);
    out.field("median_s", median(s.durations_s));
    out.end_object();
  }
  out.end_object();
  std::uint64_t partial = 0;
  for (const metric& x : m.items()) partial += x.partial ? 1 : 0;
  m.set("trace.partial_metrics", static_cast<double>(partial), "count");
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fib|graph --seed N --seconds S "
               "--trace 0|1 --serve-rate R [--inject-fault]\n");
}

bool parse(int argc, char** argv, options& opt) {
  opt.nproc = static_cast<unsigned>(cpu_rotation().cpus());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--serve-rate" && has_value) {
      opt.serve_rate = std::strtod(argv[++i], nullptr);
    } else {
      return false;
    }
  }
  return (opt.workload == "fib" || opt.workload == "graph") &&
         opt.seconds > 0 && opt.serve_rate > 0;
}

void emit_provenance(json_writer& out, const options& opt, const world& w) {
  out.key("provenance");
  out.begin_object();
  out.field("build_type", PERFBENCH_BUILD_TYPE);
  out.field("compiler", "g++ " __VERSION__);
  out.field("nproc", opt.nproc);
  out.field("hardware_concurrency", std::thread::hardware_concurrency());
  out.key("options");
  out.begin_object();
  out.field("CILKPP_TRACE", CILKPP_TRACE_ENABLED != 0);
  out.field("CILKPP_STRESS", CILKPP_STRESS_ENABLED != 0);
  out.field("CILKPP_LINT", CILKPP_LINT_ENABLED != 0);
  out.field("CILKPP_PEDIGREE", CILKPP_PEDIGREE_ENABLED != 0);
  out.field("CILKPP_MEMLENS", CILKPP_MEMLENS_ENABLED != 0);
  out.field("CILKPP_SLAB", CILKPP_SLAB_ENABLED != 0);
  out.field("CILKPP_SERVE", true);
  out.end_object();
  out.key("affinity_applied");
  out.begin_object();
  out.field("tp_scheduler", w.sp->affinity_applied());
  out.field("t1_scheduler", w.s1->affinity_applied());
  out.field("serve_runtimes", w.serve->affinity_applied());
  out.end_object();
  out.end_object();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  spans::enable(opt.trace);
  verdicts v;
  metric_sink m;

  // The inputs and reference answers are computed once, before set-up.
  inputs in{opt.workload == "fib"
                ? make_fib_family(kFibN)
                : make_graph_family(kGraphScale, kGraphEdges, opt.seed),
            make_serve_inputs(opt.seed), {}};
  // The first solve after this, a set-up's warm-up, returns a wrong answer.
  if (opt.inject_fault) in.fam->inject_fault();
  cpu_rotation rot;
  world w;

  cilkpp::json_writer out;
  out.begin_object();
  out.field("workload", opt.workload);
  out.field("seed", opt.seed);
  out.field("trace", opt.trace);
  if (opt.trace) {
    w = set_up(opt, in, rot, v);
    run_traced(opt, in, w, rot, v, m, out);
  } else {
    run_end_to_end(opt, in, w, rot, v, m, out);
  }
  emit_provenance(out, opt, w);
  out.key("metrics");
  out.begin_array();
  for (const metric& x : m.items()) {
    out.begin_object();
    out.field("name", x.name);
    out.field("value", x.value);
    out.field("unit", x.unit);
    out.field("partial", x.partial);
    out.end_object();
  }
  out.end_array();
  out.field("attempted", v.attempted());
  out.field("failed", v.failed());
  out.key("failures");
  out.begin_array();
  for (const std::string& f : v.failures()) out.value(f);
  out.end_array();
  out.end_object();
  std::printf("%s\n", out.take().c_str());
  return v.failed() == 0 ? 0 : 1;
}
