#include "trace/session.hpp"

#include "runtime/scheduler.hpp"

namespace cilkpp::trace {

session::session(rt::scheduler& sched, session_options opts) : sched_(&sched) {
  const unsigned n = sched.num_workers();
  rings_.reserve(n);
  std::vector<event_ring*> raw;
  raw.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<event_ring>(opts.ring_capacity));
    raw.push_back(rings_.back().get());
  }
  sched.install_trace(raw);
  active_ = true;
}

session::~session() { stop(); }

void session::stop() {
  if (!active_) return;
  sched_->remove_trace();
  active_ = false;
}

std::uint64_t session::recorded() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->recorded();
  return total;
}

std::uint64_t session::dropped() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

timeline session::assemble() {
  stop();
  std::vector<std::vector<event>> per_worker(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    rings_[i]->pop_all(per_worker[i]);
  }
  return trace::assemble(std::move(per_worker), recorded(), dropped());
}

}  // namespace cilkpp::trace
