// Recorder engine: executes a workload serially while recording its
// computation dag through an sp_builder.
//
// Workloads in src/workloads are templates over an engine context with
// spawn / sync / call / account. Instantiated with recorder_context, the
// program runs once (serially, in elision order) and produces the dag the
// parallel execution would generate — the input to cilkview (Fig. 3) and to
// the multiprocessor simulator (experiments E3–E10).
#pragma once

#include <cstdint>
#include <utility>

#include "dag/builder.hpp"
#include "dag/graph.hpp"
#include "runtime/lowering.hpp"

namespace cilkpp::dag {

class recorder_context {
 public:
  explicit recorder_context(sp_builder& builder) : builder_(&builder) {}

  recorder_context(const recorder_context&) = delete;
  recorder_context& operator=(const recorder_context&) = delete;

  /// cilk_spawn: record the fork, run the child inline.
  template <typename Fn>
  void spawn(Fn&& fn) {
    builder_->begin_spawn();
    recorder_context child(*builder_);
    std::forward<Fn>(fn)(child);
    builder_->end_spawn();
  }

  /// cilk_sync.
  void sync() { builder_->sync(); }

  /// A plain call of a Cilk function.
  template <typename Fn>
  auto call(Fn&& fn) {
    builder_->begin_call();
    recorder_context child(*builder_);
    if constexpr (std::is_void_v<decltype(fn(child))>) {
      std::forward<Fn>(fn)(child);
      builder_->end_call();
    } else {
      auto result = std::forward<Fn>(fn)(child);
      builder_->end_call();
      return result;
    }
  }

  /// Charges `units` instructions to the current strand. This is the
  /// recorder's clock: workloads call it with their per-step costs.
  void account(std::uint64_t units) { builder_->account(units); }

  /// parallel_for charges one unit of split bookkeeping per split to the
  /// continuation strand.
  static constexpr std::uint64_t pfor_split_units = 1;

  /// The underlying builder (e.g. to note which strand an event occurred
  /// in via builder().current()).
  sp_builder& builder() const { return *builder_; }

  /// Critical-section brackets; see recording_mutex for the drop-in shape
  /// workload templates expect.
  void begin_locked(std::uint32_t lock) { builder_->begin_locked(lock); }
  void end_locked() { builder_->end_locked(); }

 private:
  sp_builder* builder_;
};

/// parallel_for is the shared lowering (runtime/lowering.hpp), so the
/// recorded dag matches cilk_for's (Sec. 2) as the runtime executes it.
using rt::parallel_for;

/// A mutex for recorded workloads: lock()/unlock() bracket a critical
/// section in the recorded dag, which the simulator then executes under
/// mutual exclusion with a configurable handoff cost (experiment E12).
/// Drop-in for workload templates expecting lock()/unlock().
class recording_mutex {
 public:
  recording_mutex(recorder_context& ctx, std::uint32_t lock)
      : ctx_(&ctx), lock_(lock) {}

  void lock() { ctx_->begin_locked(lock_); }
  void unlock() { ctx_->end_locked(); }

 private:
  recorder_context* ctx_;
  std::uint32_t lock_;
};

/// Records the dag of fn(recorder_context&).
template <typename Fn>
graph record(Fn&& fn) {
  sp_builder builder;
  recorder_context root(builder);
  std::forward<Fn>(fn)(root);
  return std::move(builder).finish();
}

}  // namespace cilkpp::dag
