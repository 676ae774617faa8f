// The tools legs: both SP race-detection engines (SP-bags screen::detector,
// SP-order screen::order_detector) and the cilkview profile, each on two
// programs — fib(m), which is all SP-relation upkeep, and PageRank + BC on
// a small RMAT graph (a fixed seed), which is shadow-memory checks plus
// reducer view hooks. These serial engines share no code with the scheduler.
#pragma once

#include <cstdint>
#include <memory>

#include "perfbench.hpp"

namespace perfbench {

/// Which analyzer rides on the SP-bags detector.
enum class attached : std::uint8_t { none, lint, memlens };

struct detect_result {
  bool ok = false;
  double fib_s = 0, graph_s = 0;
  std::uint64_t procedures = 0;  ///< fib program
  std::uint64_t accesses = 0;    ///< graph program: reads + writes checked
  std::uint64_t relabels = 0;    ///< SP-order only
  std::uint64_t spills = 0;      ///< history spills, both programs
  double seconds() const { return fib_s + graph_s; }
};

struct profile_result {
  bool ok = false;
  double seconds = 0;
  std::uint64_t strands = 0;
};

class tools_world {
 public:
  /// Builds the small graph and the reference answers, including the
  /// profile counts. Serial reference work only, so it is built once per
  /// run, before set-up is timed.
  tools_world();
  ~tools_world();
  tools_world(const tools_world&) = delete;
  tools_world& operator=(const tools_world&) = delete;

  detect_result detect_bags(attached a = attached::none);
  detect_result detect_order();
  /// online_analyzer on fib(m); dag::record + analyze_dag on the graph
  /// kernels. Every call must reproduce the reference counts.
  profile_result profile();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace perfbench
