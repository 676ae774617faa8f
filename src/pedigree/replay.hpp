// Single-strand replay: re-execute only the prefix of a computation needed
// to reach one pedigree (the "given a failing seed + pedigree, re-run just
// that strand" workflow from cilkscreen/stress reports).
//
// replay_context implements the same engine surface the other serial
// engines do — spawn / sync / call / account, ADL parallel_for, note_write
// memory instrumentation — and maintains pedigrees by the shared rank rules
// (pedigree.hpp). Given a target pedigree it executes only the *spine*: a
// spawned or called child runs iff its rank list is a prefix of the target,
// so off-path subtrees are skipped entirely while every skipped boundary
// still consumes its rank (the pedigrees of what does run are unchanged).
// With no target it is a plain serial elision that happens to know its
// pedigrees — useful for mapping outputs to the strands that wrote them
// (attach a write observer and record each write's pedigree).
//
// Two deliberate asymmetries against a full run:
//   * a non-void call always executes (its result feeds the caller's
//     straight-line code, which cannot be skipped), but its descendants are
//     still pruned by the prefix test;
//   * straight-line code of spine frames runs even past the target strand —
//     detecting "we are done" mid-frame would require continuations the
//     library cannot capture. reached() reports whether the target strand
//     was actually executed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "pedigree/pedigree.hpp"
#include "runtime/lowering.hpp"

namespace cilkpp::ped {

class replay_context {
 public:
  /// One instrumented write, as seen by the observer, with the pedigree of
  /// the strand that performed it.
  struct write_event {
    const void* address;
    std::size_t size;
    const char* label;
    pedigree ped;
  };
  using write_observer = std::function<void(const write_event&)>;

  /// Full replay: no pruning, every strand executes.
  replay_context() : replay_context(pedigree{}) {}

  /// Pruned replay: execute only what is needed to reach `target`.
  explicit replay_context(pedigree target) : st_(new state) {
    st_->target = std::move(target);
    on_spine_ = st_->target.empty() || prefix_.depth() < st_->target.depth();
    shared_ = st_.get();
    touch();
  }

  replay_context(const replay_context&) = delete;
  replay_context& operator=(const replay_context&) = delete;

  /// Observer for note_write events (root only, install before running).
  void set_write_observer(write_observer obs) {
    shared_->observer = std::move(obs);
  }

  /// Elided cilk_spawn, pruned: the child runs inline iff it is on the
  /// spine. Either way the spawn consumes one rank.
  template <typename Fn>
  void spawn(Fn&& fn) {
    touch();
    const bool run = child_on_path();
    const std::uint64_t birth = rank_;
    bump();
    if (run) {
      replay_context child(this, birth);
      std::forward<Fn>(fn)(child);
    } else {
      ++shared_->frames_skipped;
    }
  }

  /// Elided cilk_sync: nothing pending, but the rank advances (the code
  /// after a sync is a new strand).
  void sync() {
    touch();
    bump();
  }

  /// A plain call. Void calls off the spine are skipped like spawns;
  /// non-void calls always run (the caller consumes the result).
  template <typename Fn>
  auto call(Fn&& fn) {
    using result = decltype(fn(std::declval<replay_context&>()));
    touch();
    const bool run = child_on_path();
    const std::uint64_t birth = rank_;
    bump();
    if constexpr (std::is_void_v<result>) {
      if (run) {
        replay_context child(this, birth);
        std::forward<Fn>(fn)(child);
      } else {
        ++shared_->frames_skipped;
      }
    } else {
      replay_context child(this, birth);
      if (!run) ++shared_->off_path_calls;
      return std::forward<Fn>(fn)(child);
    }
  }

  void account(std::uint64_t units) {
    touch();
    shared_->work += units;
  }

  /// parallel_for's grain when the caller passes 0: the serial engines'
  /// default, the runtime's rule at P = 1. Pass an explicit grain to replay
  /// a run whose grain differed (the runtime's default depends on P).
  static std::uint64_t pfor_default_grain(std::uint64_t n) {
    return rt::default_grain(n, 1);
  }

  /// Memory instrumentation hook (same shape as the cilkscreen contexts'):
  /// forwards the write plus the current strand's pedigree to the observer.
  void note_write(const void* p, std::size_t n, const char* label) {
    touch();
    if (shared_->observer) shared_->observer({p, n, label, current()});
  }

  /// The current strand's pedigree / hash / deterministic draw — identical
  /// to what the runtime or the screen engines assign the same strand.
  pedigree current() const {
    pedigree out = prefix_;
    out.ranks.push_back(rank_);
    return out;
  }
  std::uint64_t strand_id() const { return mix(prefix_hash_, rank_); }
  std::uint64_t dprng_draw() {
    touch();
    return mix(mix(prefix_hash_, rank_), ++draws_);
  }

  // Root-side results (valid on any context; state is shared).
  /// Whether the target strand executed (trivially true with no target).
  bool reached() const { return shared_->target.empty() || shared_->reached; }
  std::uint64_t executed_work() const { return shared_->work; }
  std::uint64_t frames_entered() const { return shared_->frames_entered; }
  std::uint64_t frames_skipped() const { return shared_->frames_skipped; }

 private:
  replay_context(replay_context* parent, std::uint64_t birth)
      : shared_(parent->shared_),
        prefix_(parent->prefix_),
        prefix_hash_(mix(parent->prefix_hash_, birth)) {
    prefix_.ranks.push_back(birth);
    on_spine_ = shared_->target.empty() ||
                (parent->on_spine_ &&
                 prefix_.depth() < shared_->target.depth() &&
                 shared_->target.ranks[prefix_.depth() - 1] == birth);
    ++shared_->frames_entered;
    touch();
  }

  /// Would a child born now (at rank_) be on the spine?
  bool child_on_path() const {
    const pedigree& t = shared_->target;
    if (t.empty()) return true;
    return on_spine_ && prefix_.depth() + 1 < t.depth() &&
           t.ranks[prefix_.depth()] == rank_;
  }

  void bump() {
    ++rank_;
    draws_ = 0;
  }

  /// Marks the target as reached when the current strand is it.
  void touch() {
    const pedigree& t = shared_->target;
    if (t.empty() || shared_->reached || !on_spine_) return;
    if (prefix_.depth() + 1 == t.depth() && rank_ == t.ranks.back()) {
      shared_->reached = true;
    }
  }

  struct state {
    pedigree target;
    write_observer observer;
    std::uint64_t work = 0;
    std::uint64_t frames_entered = 1;  // the root
    std::uint64_t frames_skipped = 0;
    std::uint64_t off_path_calls = 0;
    bool reached = false;
  };

  std::unique_ptr<state> st_;  ///< root only
  state* shared_;
  pedigree prefix_;
  std::uint64_t prefix_hash_ = root_seed;
  std::uint64_t rank_ = 0;
  std::uint64_t draws_ = 0;
  bool on_spine_;
};

/// parallel_for under replay is the shared lowering (runtime/lowering.hpp),
/// so loop strands get the pedigrees the other engines assign.
using rt::parallel_for;

}  // namespace cilkpp::ped
