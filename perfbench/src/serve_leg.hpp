// The serve legs: cilk::serve's job_server on runtime_set::partitioned(2)
// with three tenants (leaf fib compute, small qsort, spmv with an inner
// parallel_for). A closed loop measures saturated throughput; an open loop
// of seeded Poisson arrivals at a fixed rate measures latency from each
// job's due time to its completion.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

struct closed_loop_result {
  std::vector<double> window_jobs_per_s;  ///< one per measurement window
  std::uint64_t jobs = 0;
};

struct open_loop_result {
  std::vector<double> latency_ms;  ///< due time → completion, one per job
  std::vector<double> late_ms;     ///< generator lateness, one per job
  std::vector<double> admit_us;    ///< time inside try_submit, one per job
};

/// The seeded job inputs and their answers (serial sort and spmv), built
/// once per run, before set-up is timed.
struct serve_inputs;
std::shared_ptr<const serve_inputs> make_serve_inputs(std::uint64_t seed);

class serve_world {
 public:
  /// Constructs the runtime set and job server.
  explicit serve_world(std::shared_ptr<const serve_inputs> in);
  ~serve_world();
  serve_world(const serve_world&) = delete;
  serve_world& operator=(const serve_world&) = delete;

  /// A slice of every job kind through the full path.
  void warm_up(verdicts& v);
  /// `clients` threads, each with one job outstanding, for `seconds`.
  closed_loop_result closed_loop(double seconds, unsigned clients, verdicts& v);
  /// One generator thread (the caller) at `rate` jobs/s for `seconds`.
  open_loop_result open_loop(double seconds, double rate, verdicts& v);

  /// Resets the server's and runtimes' counters (between legs).
  void reset_stats();
  /// Per-layer numbers from the tenant snapshots and runtime stats, read
  /// at quiescence after the last leg.
  void report_layers(metric_sink& m);
  /// The runtime_set::verify_isolation audit, as one verdict.
  void audit(verdicts& v);
  /// Pool threads of the pinned runtimes (scheduler::affinity_applied).
  unsigned affinity_applied() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace perfbench
