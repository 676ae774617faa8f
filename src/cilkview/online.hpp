// Online work/span analysis — how the Cilk++ performance analyzer actually
// measures a run (paper Sec. 3.1): instead of materializing the computation
// dag, the instrumented serial execution carries the span algebra along:
//
//   per frame F:   b        span from F's entry along its own strand,
//                  longest  max over unjoined children C of
//                           (b at C's spawn + C's total span)
//   account(u):    W += u;  b += u               (same for burdened b̂ + u)
//   spawn C:       b̂ += burden (the fork strand is burdened); C starts at 0;
//                  at C's return: longest = max(longest, b_at_spawn + b_C)
//   sync:          b = max(b, longest); b̂ = max(b̂, l̂ongest) + burden
//
// The result is bit-for-bit identical to recording the dag and running
// dag::analyze / dag::burdened_span (a property test checks this), while
// using O(depth) memory instead of O(strands) — which is how the paper's
// tool could profile a 10^8-element sort.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cilkview/profile.hpp"
#include "runtime/lowering.hpp"
#include "support/assert.hpp"

namespace cilkpp::cilkview {

class online_analyzer;

/// Engine context for workload templates: runs the program inline while
/// maintaining the span algebra.
class online_context {
 public:
  online_context(online_analyzer& a, std::size_t frame) : a_(&a), frame_(frame) {}

  online_context(const online_context&) = delete;
  online_context& operator=(const online_context&) = delete;

  template <typename Fn>
  void spawn(Fn&& fn);

  void sync();

  template <typename Fn>
  auto call(Fn&& fn);

  void account(std::uint64_t units);

  /// parallel_for charges one unit per split to the continuation strand,
  /// as the recorder does, so measurements agree.
  static constexpr std::uint64_t pfor_split_units = 1;

 private:
  online_analyzer* a_;
  std::size_t frame_;
};

class online_analyzer {
 public:
  explicit online_analyzer(std::uint64_t burden = default_burden)
      : burden_(burden) {
    frames_.push_back(frame{});
  }

  /// Runs fn(root_context) and finalizes the measurement.
  template <typename Fn>
  void run(Fn&& fn) {
    online_context root(*this, 0);
    std::forward<Fn>(fn)(root);
    sync(0);  // implicit sync of the root
    finished_ = true;
  }

  /// The measured profile (work, span, burdened span, spawn/sync counts).
  profile result() const {
    CILKPP_ASSERT(finished_, "result() before run() completed");
    profile p;
    p.work = work_;
    p.span = frames_[0].b;
    p.burdened_span = frames_[0].bb;
    p.burden = burden_;
    p.spawns = spawns_;
    p.syncs = syncs_;
    p.strands = strands_;
    return p;
  }

 private:
  friend class online_context;

  struct frame {
    std::uint64_t b = 0;        ///< span along this frame's strand
    std::uint64_t bb = 0;       ///< burdened span along this frame's strand
    std::uint64_t longest = 0;  ///< best (spawn point + child span) unjoined
    std::uint64_t blongest = 0;
    bool has_children = false;
    /// Whether the strand vertex currently executing has already received
    /// its burden charge (a join that immediately forks is ONE vertex in
    /// the dag and must be charged once, not twice).
    bool cur_burdened = false;
  };

  std::size_t enter_spawn(std::size_t parent) {
    ++spawns_;
    ++strands_;  // the child's entry strand
    {
      frame& p = frames_[parent];
      if (!p.cur_burdened) p.bb += burden_;  // the forking strand's charge
      p.has_children = true;
      spawn_base_.push_back({p.b, p.bb});
      p.cur_burdened = false;  // the continuation is a fresh strand vertex
    }  // reference dies before frames_ may reallocate
    frames_.push_back(frame{});
    return frames_.size() - 1;
  }

  void exit_spawn(std::size_t parent, std::size_t child) {
    sync(child);  // implicit sync before a Cilk function returns
    const auto [base_b, base_bb] = spawn_base_.back();
    spawn_base_.pop_back();
    frame& p = frames_[parent];
    const frame& c = frames_[child];
    p.longest = std::max(p.longest, base_b + c.b);
    p.blongest = std::max(p.blongest, base_bb + c.bb);
    frames_.pop_back();
    ++strands_;  // the continuation strand resumes
  }

  std::size_t enter_call(std::size_t parent) {
    // A called frame continues the caller's current strand vertex.
    frame child;
    child.cur_burdened = frames_[parent].cur_burdened;
    frames_.push_back(child);
    return frames_.size() - 1;
  }

  void exit_call(std::size_t parent, std::size_t child) {
    sync(child);
    frame& p = frames_[parent];
    const frame& c = frames_[child];
    p.b += c.b;
    p.bb += c.bb;
    p.cur_burdened = c.cur_burdened;  // caller resumes the callee's vertex
    frames_.pop_back();
  }

  void sync(std::size_t f) {
    frame& fr = frames_[f];
    if (!fr.has_children) return;
    ++syncs_;
    ++strands_;  // the join strand
    fr.b = std::max(fr.b, fr.longest);
    fr.bb = std::max(fr.bb, fr.blongest) + burden_;  // the join is burdened
    fr.longest = 0;
    fr.blongest = 0;
    fr.has_children = false;
    fr.cur_burdened = true;  // the join vertex carries this block's charge
  }

  void account(std::size_t f, std::uint64_t units) {
    work_ += units;
    frames_[f].b += units;
    frames_[f].bb += units;
  }

  std::uint64_t burden_;
  std::vector<frame> frames_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spawn_base_;
  std::uint64_t work_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t strands_ = 1;  // the root's first strand
  bool finished_ = false;
};

template <typename Fn>
void online_context::spawn(Fn&& fn) {
  const std::size_t child = a_->enter_spawn(frame_);
  online_context child_ctx(*a_, child);
  std::forward<Fn>(fn)(child_ctx);
  a_->exit_spawn(frame_, child);
}

inline void online_context::sync() { a_->sync(frame_); }

template <typename Fn>
auto online_context::call(Fn&& fn) {
  const std::size_t child = a_->enter_call(frame_);
  online_context child_ctx(*a_, child);
  if constexpr (std::is_void_v<decltype(fn(child_ctx))>) {
    std::forward<Fn>(fn)(child_ctx);
    a_->exit_call(frame_, child);
  } else {
    auto result = std::forward<Fn>(fn)(child_ctx);
    a_->exit_call(frame_, child);
    return result;
  }
}

inline void online_context::account(std::uint64_t units) {
  a_->account(frame_, units);
}

/// parallel_for is the shared lowering (runtime/lowering.hpp): the same
/// dag shape the recorder records and the runtime executes.
using rt::parallel_for;

}  // namespace cilkpp::cilkview
