// Tests for cilk::trace: the SPSC ring (overflow accounting, concurrent
// round-trip), session capture of a real scheduled run, Chrome-JSON export
// (event counts vs ring totals, begin/end nesting), and the what-if replay
// bridge (sim T1 vs measured serial work, cilkview bound checks).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "trace/chrome.hpp"
#include "trace/replay.hpp"
#include "trace/ring.hpp"
#include "trace/session.hpp"
#include "trace/timeline.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

namespace cilkpp::trace {
namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;

event make_event(std::uint64_t t, event_kind k, std::uint64_t frame,
                 std::uint64_t aux64 = 0, std::uint32_t aux32 = 0,
                 std::uint16_t aux16 = 0, std::uint16_t worker = 0) {
  return event{t, frame, aux64, aux32, aux16, k, worker};
}

TEST(EventRing, RoundsCapacityUpToPowerOfTwo) {
  event_ring r(10);
  EXPECT_EQ(r.capacity(), 16u);
  event_ring tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(EventRing, OverflowDropsAreCountedNeverBlocking) {
  event_ring r(8);
  const std::size_t attempts = 20;
  std::size_t pushed = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    pushed += r.try_push(make_event(i, event_kind::spawn, i)) ? 1 : 0;
  }
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(r.recorded(), 8u);
  EXPECT_EQ(r.dropped(), attempts - 8u);

  // Draining frees capacity; recording resumes and totals stay monotone.
  std::vector<event> out;
  EXPECT_EQ(r.pop_all(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].frame, i);
  EXPECT_TRUE(r.try_push(make_event(99, event_kind::spawn, 99)));
  EXPECT_EQ(r.recorded(), 9u);
  EXPECT_EQ(r.dropped(), attempts - 8u);
}

TEST(EventRing, ConcurrentWriterReaderRoundTrip) {
  event_ring r(64);
  const std::uint64_t n = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      while (!r.try_push(make_event(i, event_kind::spawn, i))) {
        std::this_thread::yield();  // test wants every event through
      }
    }
  });
  std::vector<event> got;
  while (got.size() < n) {
    if (r.pop_all(got) == 0) std::this_thread::yield();
  }
  producer.join();
  ASSERT_EQ(got.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].frame, i) << "SPSC order violated at " << i;
    if (got[i].frame != i) break;
  }
  // The producer retried on full, so the drop counter only holds rejected
  // attempts that were later retried — recorded() counts each event once.
  EXPECT_EQ(r.recorded(), n);
}

// ---------------------------------------------------------------------------
// A hand-built single-worker trace with known gaps: checks the sweep's
// exclusive-time attribution and the replay's dag, deterministically.

TEST(Timeline, SweepAttributesExclusiveTimeAndReplayMatches) {
  const std::uint64_t root = 100, child = 200;
  std::vector<event> evs{
      make_event(0, event_kind::frame_begin, root, 0, 0,
                 static_cast<std::uint16_t>(frame_kind::root)),
      make_event(10, event_kind::spawn, root, child, 0),
      make_event(15, event_kind::sync_begin, root, 0, 1),
      make_event(20, event_kind::frame_begin, child, root, 1,
                 static_cast<std::uint16_t>(frame_kind::spawned)),
      make_event(30, event_kind::sync_begin, child, 0, 0, 1),
      make_event(30, event_kind::sync_end, child, 0, 0, 1),
      make_event(35, event_kind::frame_end, child),
      make_event(40, event_kind::sync_end, root, 0, 1),
      make_event(50, event_kind::frame_end, root),
  };
  timeline t = assemble({evs}, evs.size(), 0);
  EXPECT_EQ(t.anomalies, 0u);
  ASSERT_TRUE(t.has_root);
  EXPECT_EQ(t.span_ns(), 50u);

  const frame_info& rf = t.frames.at(root);
  ASSERT_EQ(rf.strand_ns.size(), 3u);  // spawn and sync are boundaries
  EXPECT_EQ(rf.strand_ns[0], 10u);     // begin → spawn
  EXPECT_EQ(rf.strand_ns[1], 5u);      // spawn → sync_begin
  EXPECT_EQ(rf.strand_ns[2], 10u);     // sync_end → end
  const frame_info& cf = t.frames.at(child);
  ASSERT_EQ(cf.strand_ns.size(), 2u);
  EXPECT_EQ(cf.strand_ns[0], 10u);
  EXPECT_EQ(cf.strand_ns[1], 5u);

  EXPECT_EQ(t.total_busy_ns(), 40u);
  EXPECT_EQ(t.lanes[0].busy_ns, 40u);
  EXPECT_EQ(t.lanes[0].scheduling_ns, 10u);  // waiting inside root's sync

  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, 2u);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.measured_busy_ns, 40u);

  sim::machine_config cfg;
  cfg.processors = 1;
  const sim::sim_result r1 = sim::simulate(rec.g, cfg);
  EXPECT_EQ(r1.work, 40u);
  EXPECT_EQ(r1.makespan, 40u);  // 1 processor: T1 == measured serial work
}

TEST(Replay, DeepCalledChainReplaysIterativelyWithoutOverflow) {
  // A 200k-deep chain of called frames: the real run spreads this depth
  // across worker stacks, so the replay must not pile it onto one host
  // stack via recursion (it used to).
  timeline t;
  t.workers = 1;
  t.has_root = true;
  t.root = 1;
  const std::uint64_t depth = 200000;
  for (std::uint64_t i = 1; i <= depth; ++i) {
    frame_info f;
    f.ped = i;
    f.kind = i == 1 ? frame_kind::root : frame_kind::called;
    f.strand_ns = {1};
    if (i < depth) {
      f.controls.push_back({strand_control::type::call, i + 1});
      f.strand_ns.push_back(1);
    }
    t.frames.emplace(i, std::move(f));
  }
  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, depth);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.measured_busy_ns, 2 * depth - 1);
}

TEST(Replay, CyclicChildLinksAreCutNotWalkedForever) {
  // A corrupted trace whose child links cycle back to the root: the walk
  // must terminate, replaying the revisited child as missing.
  timeline t;
  t.workers = 1;
  t.has_root = true;
  t.root = 1;
  frame_info root;
  root.ped = 1;
  root.kind = frame_kind::root;
  root.strand_ns = {5, 5};
  root.controls.push_back({strand_control::type::spawn, 2});
  frame_info child;
  child.ped = 2;
  child.kind = frame_kind::spawned;
  child.strand_ns = {3, 3};
  child.controls.push_back({strand_control::type::call, 1});  // back edge
  t.frames.emplace(1, std::move(root));
  t.frames.emplace(2, std::move(child));
  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, 2u);
  EXPECT_EQ(rec.missing_frames, 1u);
  EXPECT_EQ(rec.measured_busy_ns, 16u);
}

// ---------------------------------------------------------------------------
// Minimal Chrome-trace JSON reader for validation: splits the traceEvents
// array into objects (tracking brace depth) and extracts name/ph/tid.

struct jevent {
  std::string name;
  std::string ph;
  int tid = -1;
};

std::string extract_string(const std::string& obj, const std::string& key) {
  const std::string probe = "\"" + key + "\":\"";
  const std::size_t at = obj.find(probe);
  if (at == std::string::npos) return {};
  const std::size_t start = at + probe.size();
  return obj.substr(start, obj.find('"', start) - start);
}

int extract_int(const std::string& obj, const std::string& key) {
  const std::string probe = "\"" + key + "\":";
  const std::size_t at = obj.find(probe);
  if (at == std::string::npos) return -1;
  return std::stoi(obj.substr(at + probe.size()));
}

std::vector<jevent> parse_chrome_events(const std::string& json) {
  std::vector<jevent> out;
  const std::size_t array_at = json.find("\"traceEvents\":[");
  EXPECT_NE(array_at, std::string::npos);
  std::size_t i = json.find('[', array_at) + 1;
  int depth = 0;
  std::size_t obj_start = 0;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        const std::string obj = json.substr(obj_start, i - obj_start + 1);
        out.push_back(jevent{extract_string(obj, "name"),
                             extract_string(obj, "ph"), extract_int(obj, "tid")});
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
  return out;
}

struct fib_capture {
  timeline t;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t expected = 0;
};

fib_capture capture_fib(unsigned workers, unsigned n,
                        std::size_t ring_capacity = std::size_t{1} << 17) {
  scheduler sched(workers);
  session cap(sched, session_options{ring_capacity});
  std::uint64_t result = 0;
  sched.run([&](context& ctx) { result = workloads::fib(ctx, n); });
  fib_capture out;
  out.recorded = cap.recorded();
  out.dropped = cap.dropped();
  out.t = cap.assemble();
  out.expected = result;
  return out;
}

TEST(Session, CapturesConsistentFibTimelineOnFourWorkers) {
  fib_capture cap = capture_fib(4, 18);
  EXPECT_EQ(cap.expected, 2584u);
  EXPECT_EQ(cap.dropped, 0u) << "raise ring_capacity: drops break the rest";
  EXPECT_EQ(cap.t.anomalies, 0u);
  ASSERT_TRUE(cap.t.has_root);
  EXPECT_EQ(static_cast<std::uint64_t>(cap.t.events.size()), cap.recorded);

  // Every spawned/called frame's parent is in the trace, and the spawn
  // provenance closes: each non-root frame appears in its parent's controls.
  std::size_t spawned = 0;
  for (const auto& [ped, f] : cap.t.frames) {
    EXPECT_TRUE(f.ended);
    EXPECT_EQ(f.strand_ns.size(), f.controls.size() + 1);
    if (f.kind == frame_kind::root) continue;
    ++spawned;
    auto parent = cap.t.frames.find(f.parent);
    ASSERT_NE(parent, cap.t.frames.end());
    bool referenced = false;
    for (const strand_control& c : parent->second.controls) {
      referenced |= (c.child == ped);
    }
    EXPECT_TRUE(referenced);
  }
  EXPECT_GT(spawned, 100u);  // fib(18) spawns thousands of frames

  // Lane busy time and per-frame exclusive time are two views of the same
  // attribution.
  std::uint64_t lane_busy = 0;
  for (const worker_lane& lane : cap.t.lanes) lane_busy += lane.busy_ns;
  EXPECT_EQ(lane_busy, cap.t.total_busy_ns());

  // Steal bookkeeping: the matrix, the lanes, and the event list agree.
  std::uint64_t matrix_total = 0;
  for (const auto& row : cap.t.steals_by_victim) {
    for (std::uint64_t c : row) matrix_total += c;
  }
  std::uint64_t lane_steals = 0;
  for (const worker_lane& lane : cap.t.lanes) lane_steals += lane.steals;
  EXPECT_EQ(matrix_total, cap.t.steals.size());
  EXPECT_EQ(lane_steals, cap.t.steals.size());

  // The tables render without dying and carry one row per worker.
  EXPECT_EQ(utilization_table(cap.t).rows(), 4u);
  EXPECT_EQ(steal_matrix_table(cap.t).rows(), 4u);
  EXPECT_EQ(steal_interval_table(cap.t).rows(), 4u);
}

// ---------------------------------------------------------------------------
// The spawn/sync fast path records exactly what the out-of-line path
// records. A no-op chaos policy sends every sync and child epilogue down the
// out-of-line path; its capture must equal the plain one, and both must
// equal the values pinned below. fib's were taken before the inline split;
// the two loops' while parallel_for's body(i) leaves still had an epilogue
// of their own rather than being ordinary spawned frames. Neither change
// may move an event, a rank or a census value.

/// Keeps every default decision: installing it changes only which path runs.
struct noop_chaos final : rt::chaos_policy {
  void perturb(unsigned, rt::chaos_point) override {}
  bool prefer_steal(unsigned) override { return false; }
  std::size_t pick_victim(unsigned, std::size_t n) override { return n; }
};

struct solo_trace {
  std::uint64_t result = 0;
  std::uint64_t dropped = 0;
  std::uint64_t counts[6] = {};  ///< events per event_kind
  std::uint64_t kind_hash = 0;   ///< FNV-1a over the kind sequence
  std::uint64_t field_hash = 0;  ///< FNV-1a over every field but time/worker
  rt::worker_stats stats;
};

/// Runs program(ctx) -> std::uint64_t once on a traced P=1 scheduler.
template <typename Program>
solo_trace trace_solo(rt::chaos_policy* chaos, const Program& program) {
  scheduler sched(1);
  if (chaos != nullptr) sched.install_chaos(chaos);
  session cap(sched, session_options{std::size_t{1} << 15});
  solo_trace out;
  sched.run([&](context& ctx) { out.result = program(ctx); });
  out.dropped = cap.dropped();
  const timeline t = cap.assemble();
  out.stats = sched.stats();
  constexpr std::uint64_t fnv_prime = 0x100000001b3ULL;
  auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * fnv_prime;
    }
  };
  out.kind_hash = out.field_hash = 0xcbf29ce484222325ULL;
  for (const event& e : t.events) {  // P=1: one ring, program order
    const auto k = static_cast<std::uint8_t>(e.kind);
    if (k < 6) ++out.counts[k];
    mix(out.kind_hash, k);
    mix(out.field_hash, k);
    mix(out.field_hash, e.frame);
    mix(out.field_hash, e.aux64);
    mix(out.field_hash, e.aux32);
    mix(out.field_hash, e.aux16);
  }
  return out;
}

/// Two body(i) loops: one whose grains fill whole bursts, one with a ragged
/// last grain. Returns a checksum of what the bodies wrote.
std::uint64_t two_loops(context& ctx) {
  std::vector<std::uint64_t> a(4096), b(1000);
  rt::parallel_for(ctx, 0, 4096, [&](int i) { a[i] = 3 * i + 1; }, 16);
  rt::parallel_for(ctx, 0, 1000, [&](int i) { b[i] = 5 * i + 2; }, 3);
  std::uint64_t sum = 0;
  for (std::uint64_t v : a) sum += v;
  for (std::uint64_t v : b) sum += v;
  return sum;
}

struct solo_pin {
  const char* name;
  std::uint64_t (*program)(context&);
  std::uint64_t result;
  std::uint64_t spawns, peak_deque, max_frame_depth, peak_live_frames;
  std::uint64_t frames;  ///< frame_begin events, = frame_end events
  std::uint64_t syncs;   ///< sync_begin events, = sync_end events
  std::uint64_t kind_hash, field_hash;
};

TEST(Session, SoloFibTraceIsPinnedAndIdenticalOnBothPaths) {
  const solo_pin pins[] = {
      {"fib(16)", [](context& ctx) { return workloads::fib(ctx, 16); }, 987,
       /*spawns=F(17)-1*/ 1596, 8, 15, 16, 1597, 3193, 0x42dbd0762fc0ff43ULL,
       0x42daf2f3f124cca4ULL},
      {"two body(i) loops", two_loops,
       4096ULL * 4095 / 2 * 3 + 4096 + 1000ULL * 999 / 2 * 5 + 2000, 590, 34,
       6, 7, 593, 617, 0xcc2c965a51b3ec23ULL, 0x145988eb7168cc0cULL},
  };
  for (const solo_pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const solo_trace fast = trace_solo(nullptr, pin.program);
    noop_chaos hook;
    const solo_trace slow = trace_solo(&hook, pin.program);
    for (const solo_trace* r : {&fast, &slow}) {
      EXPECT_EQ(r->result, pin.result);
      // Scheduler census: the same on both paths, and the pinned values.
      EXPECT_EQ(r->stats.spawns, pin.spawns);
      EXPECT_EQ(r->stats.tasks_executed, r->stats.spawns);
      EXPECT_EQ(r->stats.steals, 0u);
      EXPECT_EQ(r->stats.peak_deque, pin.peak_deque);
      EXPECT_EQ(r->stats.max_frame_depth, pin.max_frame_depth);
      EXPECT_EQ(r->stats.peak_live_frames, pin.peak_live_frames);
      EXPECT_EQ(r->dropped, 0u);
      using k = event_kind;
      EXPECT_EQ(r->counts[static_cast<int>(k::frame_begin)], pin.frames);
      EXPECT_EQ(r->counts[static_cast<int>(k::frame_end)], pin.frames);
      EXPECT_EQ(r->counts[static_cast<int>(k::spawn)], pin.spawns);
      EXPECT_EQ(r->counts[static_cast<int>(k::sync_begin)], pin.syncs);
      EXPECT_EQ(r->counts[static_cast<int>(k::sync_end)], pin.syncs);
      EXPECT_EQ(r->counts[static_cast<int>(k::steal)], 0u);
      EXPECT_EQ(r->kind_hash, pin.kind_hash);
      EXPECT_EQ(r->field_hash, pin.field_hash);
    }
  }
}

TEST(ChromeExport, EventCountMatchesRingTotalsAndNestingIsWellFormed) {
  fib_capture cap = capture_fib(4, 16);
  std::ostringstream os;
  write_chrome_trace(os, cap.t);
  const std::string json = os.str();

  const std::vector<jevent> events = parse_chrome_events(json);
  // One JSON event per recorded trace event: JSON count + counted drops
  // equals everything the runtime attempted to record.
  EXPECT_EQ(static_cast<std::uint64_t>(events.size()), cap.recorded);
  EXPECT_EQ(cap.recorded + cap.dropped,
            cap.t.recorded + cap.t.dropped);

  // Per-tid B/E nesting: E always closes the most recent open B of the
  // same name (frames and sync spans form a stack on each worker).
  std::vector<std::vector<std::string>> stacks(4);
  for (const jevent& e : events) {
    ASSERT_GE(e.tid, 0);
    ASSERT_LT(e.tid, 4);
    if (e.ph == "B") {
      stacks[static_cast<std::size_t>(e.tid)].push_back(e.name);
    } else if (e.ph == "E") {
      auto& stack = stacks[static_cast<std::size_t>(e.tid)];
      ASSERT_FALSE(stack.empty()) << "E without open B on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    } else {
      EXPECT_EQ(e.ph, "i");
    }
  }
  for (const auto& stack : stacks) EXPECT_TRUE(stack.empty());
}

TEST(Replay, SimT1MatchesMeasuredSerialWorkWithinTenPercent) {
  fib_capture cap = capture_fib(4, 18);
  ASSERT_EQ(cap.dropped, 0u);
  reconstruction rec = reconstruct_dag(cap.t);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.frames, cap.t.frames.size());
  ASSERT_GT(rec.measured_busy_ns, 0u);

  sim::machine_config cfg;
  cfg.processors = 1;
  cfg.policy = sim::spawn_policy::parent_first;
  const sim::sim_result r1 = sim::simulate(rec.g, cfg);
  const double measured = static_cast<double>(cap.t.total_busy_ns());
  const double simulated = static_cast<double>(r1.makespan);
  EXPECT_NEAR(simulated, measured, 0.10 * measured);
  // By construction they agree exactly: every exclusive nanosecond the
  // sweep attributed became dag work, and one processor never steals.
  EXPECT_EQ(r1.work, rec.measured_busy_ns);
}

TEST(Replay, WhatIfPredictionsRespectCilkviewBounds) {
  scheduler sched(4);
  session cap(sched, session_options{std::size_t{1} << 17});
  auto data = workloads::random_doubles(std::size_t{1} << 16, 7);
  sched.run([&](context& ctx) {
    workloads::qsort(ctx, data.data(), data.data() + data.size(), 1024);
  });
  timeline t = cap.assemble();
  ASSERT_TRUE(t.has_root);

  const std::vector<unsigned> procs{1, 2, 4, 8};
  what_if_report report = what_if(t, procs);
  ASSERT_EQ(report.points.size(), procs.size());
  EXPECT_TRUE(report.within_bounds);
  EXPECT_GT(report.prof.work, 0u);
  for (const what_if_point& pt : report.points) {
    EXPECT_GT(pt.predicted_ns, 0u);
    EXPECT_LE(pt.predicted_speedup, pt.upper_bound * 1.05);
    EXPECT_GT(pt.burdened_estimate, 0.0);
  }
  // More processors never slow the simulated schedule down by more than
  // the stochastic steal noise.
  EXPECT_LT(report.points[3].predicted_ns,
            report.points[0].predicted_ns);
  EXPECT_EQ(what_if_table(report).rows(), procs.size());
}

}  // namespace
}  // namespace cilkpp::trace
