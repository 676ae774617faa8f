// In-memory spans recorded by the benchmark around calls into the
// library's public functions (the traced run only). A span has a name, a
// start and end, the span open on the same thread when it began (its
// parent) and a trial id. Each thread appends to its own buffer; buffers
// outlive their threads and are read only after those threads joined.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

/// The library entry points the benchmark wraps.
enum class name : std::uint8_t {
  scheduler_ctor,
  runtime_set_ctor,
  job_server_ctor,
  scheduler_run,
  rmat_graph,
  transpose,
  pagerank,
  betweenness,
  try_submit,
  future_get,
  run_under_detector,
  online_analyzer_run,
  dag_record,
  analyze_dag,
  count_
};

const char* to_string(name n);

struct record {
  name n = name::scheduler_ctor;
  std::uint32_t trial = 0;
  std::int64_t parent = -1;  ///< index in the same thread's buffer
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Turns recording on or off (off: span objects cost one branch).
void enable(bool on);
bool enabled();

/// RAII span: open on construction, closed on destruction.
class span {
 public:
  explicit span(name n, std::uint32_t trial = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  std::int64_t index_ = -1;
};

struct summary {
  std::uint64_t calls = 0;
  double total_s = 0;  ///< Σ duration
  double self_s = 0;   ///< Σ (duration − duration of direct children)
  std::vector<double> durations_s;
};

/// Per-name totals over every thread's buffer. Call only when every
/// recording thread has finished.
std::vector<summary> summarize();

}  // namespace perfbench::spans
