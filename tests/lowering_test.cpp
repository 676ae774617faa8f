// The parallel_for lowering is one template every engine runs
// (runtime/lowering.hpp). These tests pin that down across the engines over
// a grid of (n, grain) values that reaches each path of the lowering — the
// inline path (n ≤ grain), leaf bursts only (grain < n ≤ 32·grain), halving
// plus bursts (n > 32·grain) and the remainders around them — in both body
// forms: every engine must count the same spawns, and every engine with
// pedigrees must leave the caller on the same strand.
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cilkscreen/screen_context.hpp"
#include "cilkview/online.hpp"
#include "dag/recorder.hpp"
#include "pedigree/replay.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/serial.hpp"

namespace {

using namespace cilkpp;

struct pfor_case {
  std::uint64_t n;
  std::uint64_t grain;
  bool leaf_ctx;  // body(ctx, i) rather than body(i)
};

void PrintTo(const pfor_case& c, std::ostream* os) {
  *os << "n=" << c.n << " grain=" << c.grain
      << (c.leaf_ctx ? " body(ctx, i)" : " body(i)");
}

std::vector<pfor_case> grid() {
  std::vector<pfor_case> cases;
  for (const std::uint64_t g : {1u, 3u, 8u}) {
    const std::uint64_t burst = rt::pfor_burst_grains * g;
    const std::set<std::uint64_t> ns{1,     g,         g + 1,
                                     5 * g + 1, burst, burst + 1,
                                     2 * burst - 1, 3 * burst + g / 2};
    for (const std::uint64_t n : ns) {
      for (const bool leaf_ctx : {false, true}) {
        cases.push_back({n, g, leaf_ctx});
      }
    }
  }
  return cases;
}

/// Runs the loop on ctx and checks it visited every iteration once.
template <typename Ctx>
void run_loop(Ctx& ctx, const pfor_case& c) {
  std::uint64_t sum = 0;
  if (c.leaf_ctx) {
    parallel_for(
        ctx, std::uint64_t{0}, c.n,
        [&](Ctx&, std::uint64_t i) { sum += i + 1; }, c.grain);
  } else {
    parallel_for(
        ctx, std::uint64_t{0}, c.n, [&](std::uint64_t i) { sum += i + 1; },
        c.grain);
  }
  EXPECT_EQ(sum, c.n * (c.n + 1) / 2);
}

/// What one engine saw: its spawn count and, with pedigrees, the strand
/// the caller continues on after the loop.
struct shape {
  std::uint64_t spawns = 0;
  std::uint64_t strand_after = 0;
};

template <typename Detector, typename Ctx>
shape under_detector(const pfor_case& c) {
  Detector d;
  shape s;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    run_loop(ctx, c);
    s.strand_after = ctx.strand_id();
  });
  EXPECT_FALSE(d.found_races());
  const screen::proc_tree& tree = d.procedures();
  for (screen::proc_id p = 0; p < tree.size(); ++p) {
    if (tree.edge_of(p) == screen::proc_tree::edge::spawned) ++s.spawns;
  }
  return s;
}

class LoweringShape : public ::testing::TestWithParam<pfor_case> {};

TEST_P(LoweringShape, EveryEngineSeesTheSameLoop) {
  const pfor_case c = GetParam();

  shape runtime;
  rt::scheduler sched(1);
  sched.run([&](rt::context& ctx) {
    run_loop(ctx, c);
    runtime.strand_after = ctx.strand_id();
  });
  runtime.spawns = sched.stats().spawns;

  cilkview::online_analyzer online;
  online.run([&](cilkview::online_context& ctx) { run_loop(ctx, c); });
  EXPECT_EQ(online.result().spawns, runtime.spawns) << "cilkview";

  const dag::graph g =
      dag::record([&](dag::recorder_context& ctx) { run_loop(ctx, c); });
  std::uint64_t forks = 0;
  for (dag::vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (g.successors(v).size() == 2) ++forks;
  }
  EXPECT_EQ(forks, runtime.spawns) << "recorded dag";

  const shape bags =
      under_detector<screen::detector, screen::screen_context>(c);
  const shape order =
      under_detector<screen::order_detector, screen::order_context>(c);
  EXPECT_EQ(bags.spawns, runtime.spawns) << "SP-bags";
  EXPECT_EQ(order.spawns, runtime.spawns) << "SP-order";

  rt::serial_context serial;
  run_loop(serial, c);
  EXPECT_EQ(serial.strand_id(), runtime.strand_after) << "serial elision";
  ped::replay_context replay;
  run_loop(replay, c);
  EXPECT_EQ(replay.strand_id(), runtime.strand_after) << "replay";
  EXPECT_EQ(bags.strand_after, runtime.strand_after) << "SP-bags";
  EXPECT_EQ(order.strand_after, runtime.strand_after) << "SP-order";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LoweringShape, ::testing::ValuesIn(grid()),
    [](const ::testing::TestParamInfo<pfor_case>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_g";
      name += std::to_string(info.param.grain);
      name += info.param.leaf_ctx ? "_ctx" : "_i";
      return name;
    });

}  // namespace
