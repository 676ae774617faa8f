// Shared pieces of the repository benchmark: run options, the operation
// verdict ledger behind `attempted`/`failed`, the metric sink, time budgets
// and order statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/timing.hpp"

namespace perfbench {

struct options {
  std::string workload;      ///< "fib" or "graph"
  std::uint64_t seed = 1;
  double seconds = 10;       ///< measured time of the run
  bool trace = false;        ///< per-layer run instead of the end-to-end one
  bool inject_fault = false; ///< corrupt one solve output (self-test of checks)
  double serve_rate = 0;     ///< open-loop arrival rate, jobs/s
  unsigned nproc = 1;        ///< P for the parallel legs: the allowed CPUs
};

/// One verdict per operation (a trial or a job). An operation fails when
/// its output check fails, its job is refused or throws, or a detector
/// verdict is wrong or incomplete. Thread-safe: serve clients record too.
class verdicts {
 public:
  void record(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
  /// `attempted` operations at once, `failed` of them failed.
  void add(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 8) failures_.push_back(what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool partial = false;  ///< measured from an incomplete trace
};

/// Metrics in the order they were set; setting a name twice overwrites it.
class metric_sink {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           bool partial = false) {
    for (metric& m : items_) {
      if (m.name == name) {
        m = metric{name, value, unit, partial};
        return;
      }
    }
    items_.push_back(metric{name, value, unit, partial});
  }
  std::vector<metric>& items() { return items_; }
  const std::vector<metric>& items() const { return items_; }

 private:
  std::vector<metric> items_;
};

/// A leg's share of the run: more() stays true until the deadline passes,
/// but always allows at least `min_trials` trials.
class budget {
 public:
  explicit budget(double seconds, std::size_t min_trials = 3)
      : end_(cilkpp::now_ns() + static_cast<std::uint64_t>(seconds * 1e9)),
        min_trials_(min_trials) {}
  bool more(std::size_t trials_done) const {
    return trials_done < min_trials_ || cilkpp::now_ns() < end_;
  }

 private:
  std::uint64_t end_;
  std::size_t min_trials_;
};

/// Pins the calling thread to each allowed CPU in turn. A single-threaded
/// trial then samples every vCPU equally in every run: on a shared host
/// the vCPUs differ in speed by tens of percent for seconds at a time, and
/// a run whose thread settled on a slow one would read slow throughout.
class cpu_rotation {
 public:
  cpu_rotation();
  /// Pins the calling thread to the next CPU.
  void next();
  /// Lets the calling thread run on every allowed CPU again.
  void release();
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<unsigned> cpus_;
  std::size_t next_ = 0;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Process CPU time (user + system), seconds.
double process_cpu_s();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
