// The solve legs: one program run as one call on a cilk::scheduler at
// P = nproc (tp) and P = 1 (t1), and under the serial elision (ts). A
// family owns the program's inputs, its reference answers and the check
// every solve's output must pass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cilkview/profile.hpp"
#include "graph/csr.hpp"
#include "perfbench.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

class solve_family {
 public:
  /// One solve: whether its output passed the check, and the time of the
  /// solve call alone (the check is not timed).
  struct trial {
    bool ok = false;
    double seconds = 0;
  };

  virtual ~solve_family() = default;

  /// Builds the inputs through the library on `sched` (part of set-up).
  virtual void build(cilkpp::rt::scheduler& sched) = 0;
  /// Whether the last build matched the serial builders.
  virtual bool build_checked() const { return true; }
  /// One solve on `sched`.
  virtual trial solve(cilkpp::rt::scheduler& sched) = 0;
  /// One solve under the serial elision engine (rt::serial_context).
  virtual trial solve_serial() = 0;
  /// cilkview counts of the same program on the same input.
  virtual cilkpp::cilkview::profile profile() = 0;
  /// Spawns one solve performs, when the program fixes it exactly (0 if not).
  virtual std::uint64_t exact_spawns() const { return 0; }
  /// Family-specific per-layer metrics gathered by earlier calls.
  virtual void report_layers(metric_sink&, unsigned /*nproc*/) const {}
  /// What the last failed check was.
  const std::string& failure() const { return failure_; }

  /// Makes the next checked output wrong (self-test of the checks).
  void inject_fault() { fault_ = true; }

 protected:
  bool take_fault() {
    const bool f = fault_;
    fault_ = false;
    return f;
  }
  bool fail(std::string why) {
    failure_ = std::move(why);
    return false;
  }

 private:
  bool fault_ = false;
  std::string failure_;
};

/// fib(n) with no cutoff: nearly all time is the spawn/sync path.
std::unique_ptr<solve_family> make_fib_family(unsigned n);

/// Seeded RMAT graph: 10 PageRank sweeps plus 4-pivot Brandes BC. The
/// constructor builds the serial references (outside set-up time).
std::unique_ptr<solve_family> make_graph_family(unsigned scale,
                                                std::uint64_t edges,
                                                std::uint64_t seed);

/// A BC pivot-sampling seed derived from `seed` whose sampled pivots each
/// reach at least a quarter of the graph. On an RMAT graph a uniformly
/// drawn vertex is about as likely isolated as in the giant component, so
/// with a handful of pivots BC's cost would swing 0–4x with the seed.
std::uint64_t reaching_pivot_seed(const cilkpp::graph::csr& g,
                                  std::uint32_t pivots, std::uint64_t seed);

/// Times of one solve per engine, one entry per trial.
struct solve_times {
  std::vector<double> tp, t1, ts;
};

/// Runs tp, t1 and ts solves for `seconds`, giving each engine an equal
/// share of the time (at least one solve each), and records one verdict
/// per solve. Each solve starts on the next CPU of `rot`.
void run_solve_rounds(solve_family& f, cilkpp::rt::scheduler& sp,
                      cilkpp::rt::scheduler& s1, double seconds,
                      cpu_rotation& rot, verdicts& v, solve_times& out);

}  // namespace perfbench
