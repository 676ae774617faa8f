#include "spans.hpp"

#include <atomic>
#include <memory>
#include <mutex>

#include "support/timing.hpp"

namespace perfbench::spans {
namespace {

struct buffer {
  std::vector<record> records;
  std::int64_t open = -1;  ///< innermost open span
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<buffer>> g_buffers;  // guarded by g_mu

buffer& local() {
  thread_local buffer* b = [] {
    auto owned = std::make_unique<buffer>();
    buffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return *b;
}

}  // namespace

const char* to_string(name n) {
  switch (n) {
    case name::scheduler_ctor: return "scheduler_ctor";
    case name::runtime_set_ctor: return "runtime_set_ctor";
    case name::job_server_ctor: return "job_server_ctor";
    case name::scheduler_run: return "scheduler_run";
    case name::rmat_graph: return "rmat_graph";
    case name::transpose: return "transpose";
    case name::pagerank: return "pagerank";
    case name::betweenness: return "betweenness";
    case name::try_submit: return "try_submit";
    case name::future_get: return "future_get";
    case name::run_under_detector: return "run_under_detector";
    case name::online_analyzer_run: return "online_analyzer_run";
    case name::dag_record: return "dag_record";
    case name::analyze_dag: return "analyze_dag";
    case name::count_: break;
  }
  return "?";
}

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

span::span(name n, std::uint32_t trial) {
  if (!enabled()) return;
  buffer& b = local();
  index_ = static_cast<std::int64_t>(b.records.size());
  b.records.push_back(record{n, trial, b.open, cilkpp::now_ns(), 0});
  b.open = index_;
}

span::~span() {
  if (index_ < 0) return;
  buffer& b = local();
  record& r = b.records[static_cast<std::size_t>(index_)];
  r.end_ns = cilkpp::now_ns();
  b.open = r.parent;
}

std::vector<summary> summarize() {
  std::vector<summary> out(static_cast<std::size_t>(name::count_));
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    std::vector<double> child_s(b->records.size(), 0.0);
    for (const record& r : b->records) {
      if (r.parent >= 0 && r.end_ns != 0) {
        child_s[static_cast<std::size_t>(r.parent)] +=
            cilkpp::ns_to_s(r.end_ns - r.start_ns);
      }
    }
    for (std::size_t i = 0; i < b->records.size(); ++i) {
      const record& r = b->records[i];
      if (r.end_ns == 0) continue;  // still open: not a finished call
      summary& s = out[static_cast<std::size_t>(r.n)];
      const double d = cilkpp::ns_to_s(r.end_ns - r.start_ns);
      ++s.calls;
      s.total_s += d;
      s.self_s += d - child_s[i];
      s.durations_s.push_back(d);
    }
  }
  return out;
}

}  // namespace perfbench::spans
