#include <algorithm>
#include <thread>

#include "runtime/scheduler.hpp"

// The spawn/join hot path here is entirely lock-free (DESIGN.md §4,
// "lock-free join"). The ownership discipline:
//
//   * Window STRUCTURE (append, clear/fold) is touched only by the single
//     strand executing this frame — only it spawns, calls, syncs, or
//     accesses reducers through this frame — and that strand's window is
//     always the top of its worker's slot stack. Pushes never move
//     existing slots (chunked storage), so children holding slot pointers
//     are safe.
//   * Slot CONTENTS of a child slot are written by exactly one child —
//     the child owns its slot exclusively from spawn until it signals.
//   * The join counter is split. outstanding_ is plain and owner-only: a
//     child popped by the parent's own worker runs on the parent's thread
//     and decrements it there. A stolen child instead release-increments
//     stolen_joined_; wait_children is done once its acquire load equals
//     outstanding_. That acquire pairs with every stolen child's release
//     RMW (RMWs extend the release sequence), ordering all stolen slot
//     writes before all fold reads; local children's writes are ordered by
//     program order. An unstolen spawn therefore costs no locked RMW.

namespace cilkpp::rt {

context::context(scheduler* sched, worker* home, context* parent,
                 frame_slot* parent_slot, kind k, std::uint64_t ped_hash,
                 std::uint64_t birth_rank, bool stolen)
    : sched_(sched),
      home_(home),
      parent_(parent),
      parent_slot_(parent_slot),
      kind_(k),
      depth_(parent == nullptr ? 0 : parent->depth_ + 1),
      ped_hash_(ped_hash),
      stolen_(stolen),
      arena_(home->slots) {
  birth_rank_ = birth_rank;
  CILKPP_ASSERT(home_ != nullptr, "context created off a worker");
  // Single writer (this worker); relaxed load-max-store is race-free.
  if (depth_ > home_->max_frame_depth.load(std::memory_order_relaxed)) {
    home_->max_frame_depth.store(depth_, std::memory_order_relaxed);
  }
  // Live-frame census (ctor/dtor both run on the home worker, so the
  // counter is single-writer and bump_counter's load+store suffices): the
  // current count is this worker's call depth including nested helping; its
  // peak bounds the deque depth in the stress oracle's busy-leaves check.
  bump_counter(home_->live_frames);
  const std::uint64_t live = home_->live_frames.load(std::memory_order_relaxed);
  if (live > home_->peak_live_frames.load(std::memory_order_relaxed)) {
    home_->peak_live_frames.store(live, std::memory_order_relaxed);
  }
  trace_record(home_, trace::event_kind::frame_begin, ped_hash_,
               parent_ == nullptr ? 0 : parent_->ped_hash_,
               static_cast<std::uint32_t>(depth_),
               static_cast<std::uint16_t>(kind_));
}

context::~context() {
  CILKPP_ASSERT(finished_, "context destroyed before its epilogue ran");
  // The destructor runs on the home worker for every frame kind (child
  // stealing never migrates a frame), so begin/end pairs nest per worker.
  //
  // Spawned frames record frame_end inside signal_parent instead: this
  // destructor runs *after* the parent was signalled, so the root sync
  // could already have passed and trace
  // teardown (session::assemble → scheduler::remove_trace + ring drain)
  // could race a record issued here. Root and called frames are destroyed
  // strictly inside run() on the thread that will later tear the trace
  // down, so recording here is safe for them.
  if (kind_ != kind::spawned) {
    trace_record(home_, trace::event_kind::frame_end, ped_hash_);
  }
  // Release the window. Normally it is empty by now (every epilogue folds
  // and takes its views); an exception that unwound through a call leaves
  // slot contents behind, which must not leak into the next window here.
  if (!arena_.empty()) arena_.clear();
  const std::uint64_t prior =
      home_->live_frames.load(std::memory_order_relaxed);
  CILKPP_ASSERT(prior != 0, "live-frame census underflow");
  home_->live_frames.store(prior - 1, std::memory_order_relaxed);
}

void context::wait_children() noexcept {
  // The paper's sync is a *local* barrier: only this frame's children are
  // awaited. While they run elsewhere, this worker helps — first its own
  // deque (deepest work, preserving the stack discipline), then stealing —
  // rather than blocking the OS thread. Children this worker pops decrement
  // outstanding_ inside help_one, on this thread; the loop ends when the
  // rest have all been stolen and finished. The common case (no children
  // outstanding) reads no atomic at all.
  chaos_perturb(home_, chaos_point::sync_enter);
  if (outstanding_ != 0) {
    std::uint32_t idle_rounds = 0;
    while (outstanding_ != stolen_joined_.load(std::memory_order_acquire)) {
      if (sched_->help_one(*home_)) {
        idle_rounds = 0;
        continue;
      }
      if (++idle_rounds < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    // Every child has finished and no stolen child touches the counter
    // again; the next steal is ordered after this reset by the deque.
    outstanding_ = 0;
    stolen_joined_.store(0, std::memory_order_relaxed);
  }
  chaos_perturb(home_, chaos_point::sync_exit);
}

std::exception_ptr context::fold_slots() {
  // Fast path: no child slot since the last fold means nothing to wait for
  // and nothing to fold — without child slots the window holds at most one
  // owner segment (new segments are only opened when the previous slot is
  // a child slot), which a fold would pass through unchanged. The view
  // cache stays valid too, since no view moves.
  if (!arena_.has_children()) return nullptr;
  // Precondition (asserted): children all completed — stolen children's
  // release increments were paired by wait_children's acquire, so plain
  // reads of slot contents below (and of child_delivered_) are ordered
  // after the children's writes.
  CILKPP_ASSERT(outstanding_ == 0, "fold_slots with children still running");
  // Clean fast path: no child delivered views or an exception (every child
  // slot is still pristine) and no strand segment was opened, so the fold
  // is the identity — drop the window in O(1) and keep going. This
  // is the steady state of a spawn+sync loop without reducers.
  if (!child_delivered_.load(std::memory_order_relaxed) &&
      arena_.all_children()) {
    arena_.reset_clean();
    return nullptr;
  }
  // Folding consumes view objects; the strand-local cache may point into a
  // consumed segment. Only the owning strand calls fold paths, so this is
  // a plain write.
  cached_hyper_ = nullptr;
  std::exception_ptr first_exception;
  view_map folded;
  arena_.for_each([&](frame_slot& s) {
    if (s.exception && !first_exception) first_exception = s.exception;
    fold_view_maps(folded, std::move(s.views));
  });
  arena_.clear();
  child_delivered_.store(false, std::memory_order_relaxed);
  if (!folded.empty()) {
    arena_.append(/*is_child=*/false)->views = std::move(folded);
  }
  return first_exception;
}

view_map context::take_final_views() {
  if (arena_.empty()) return {};
  CILKPP_ASSERT(arena_.size() == 1 && !arena_.last()->is_child,
                "take_final_views requires folded slots");
  view_map result = std::move(arena_.last()->views);
  arena_.clear();
  return result;
}

void context::sync() {
  CILKPP_ASSERT(!finished_, "sync on a finished frame");
  bump_rank();  // the strand after the sync is new
  trace_record(home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_));
  wait_children();
  std::exception_ptr ex = fold_slots();
  trace_record(home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_));
  if (ex) std::rethrow_exception(ex);
}

context::spawn_result context::join_spawned(
    std::exception_ptr body_exception) noexcept {
  trace_record(home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  spawn_result r;
  // The body's exception unwound past the implicit sync, so in serial
  // execution it is what the parent would see; fall back to the serially
  // earliest child exception otherwise.
  r.exception = std::move(body_exception);
  // An empty window means no child and no segment since the last sync:
  // nothing to wait for, fold, or hand over.
  if (!arena_.empty()) {
    wait_children();  // implicit sync before a Cilk function returns
    std::exception_ptr child_exception = fold_slots();
    if (!r.exception) r.exception = std::move(child_exception);
    r.views = take_final_views();
  }
  trace_record(home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  return r;
}

void context::signal_parent(spawn_result& r) noexcept {
  // Lock-free delivery: this child owns its parent-window slot exclusively
  // (one child per slot; the parent only appends elsewhere, never moves
  // slots) until the signal below hands it back.
  frame_slot* s = parent_slot_;
  CILKPP_ASSERT(s != nullptr && s->is_child, "spawn slot mismatch");
  if (!r.views.empty() || r.exception) {
    if (!r.views.empty()) s->views = std::move(r.views);
    s->exception = std::move(r.exception);
    // Tells the parent's fold that a slot has contents; without it the
    // fold takes the clean fast path and never reads the slots. Relaxed:
    // the signal below publishes this store too.
    parent_->child_delivered_.store(true, std::memory_order_relaxed);
  }
  finished_ = true;
  // frame_end must be recorded *before* the parent learns this child is
  // done: the signal may let the enclosing syncs — up to the root —
  // complete, after which run() returns and the trace session may detach
  // and drain the rings. Any record after this point would race that
  // teardown (lost events at best, a push into a freed ring at worst).
  trace_record(home_, trace::event_kind::frame_end, ped_hash_);
  parent_->signal_join(stolen_);
}

void context::finish_called(view_map& views) {
  try {
    sync();  // implicit sync; rethrows child exceptions to the caller
  } catch (...) {
    finished_ = true;
    throw;
  }
  views = take_final_views();
  finished_ = true;
}

void context::fold_called(view_map&& views) {
  if (views.empty()) return;
  // Owner-only: a called frame runs synchronously on the strand executing
  // this frame, so appending to this window here is the same single-strand
  // append as this frame's own spawns. The outstanding children (if any)
  // write only their own slots' contents, never the window structure.
  frame_slot* tail = arena_.last();
  if (tail == nullptr || tail->is_child) {
    tail = arena_.append(/*is_child=*/false);
  }
  // Caller updates so far are serially before the callee's: fold left.
  fold_view_maps(tail->views, std::move(views));
}

void context::finish_root() {
  sync();
  view_map final_views = take_final_views();
  finished_ = true;
  for (view_map::entry& e : final_views) {
    // Null the entry before absorb_final runs: absorb_final calls the
    // user's reduce, which may throw, and final_views' destructor would
    // otherwise delete the view a second time during unwinding.
    std::unique_ptr<view_base> view(e.view);
    e.view = nullptr;
    e.hyper->absorb_final(std::move(view));
  }
  final_views.detach_all();
}

void context::finish_root_abandoned() noexcept {
  trace_record(home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  wait_children();
  (void)fold_slots();  // child exceptions are superseded by the body's
  trace_record(home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  view_map final_views = take_final_views();
  finished_ = true;
  for (view_map::entry& e : final_views) {
    std::unique_ptr<view_base> view(e.view);
    e.view = nullptr;  // sole owner is now `view`; no double free on throw
    try {
      e.hyper->absorb_final(std::move(view));
    } catch (...) {
      // A throwing reduce during unwinding: drop this view, keep going.
    }
  }
  final_views.detach_all();
}

std::unique_ptr<view_base> context::extract_view(hyperobject_base& h) {
  CILKPP_ASSERT(outstanding_ == 0,
                "extract_view with children still running; sync() first");
  if (std::exception_ptr ex = fold_slots()) std::rethrow_exception(ex);
  frame_slot* tail = arena_.last();
  if (tail == nullptr) return nullptr;
  std::unique_ptr<view_base> out = tail->views.extract(&h);
  if (out != nullptr && cached_hyper_ == &h) cached_hyper_ = nullptr;
  return out;
}

view_base& context::hyper_view(hyperobject_base& h) {
  if (cached_hyper_ == &h) return *cached_view_;  // strand-local fast path
  // Owner-only: open (or reuse) the current strand segment at the window
  // tail. Outstanding children never touch the window structure, so no
  // lock.
  frame_slot* tail = arena_.last();
  if (tail == nullptr || tail->is_child) {
    tail = arena_.append(/*is_child=*/false);
  }
  view_base* v = tail->views.find(&h);
  if (v == nullptr) v = tail->views.insert_new(&h, h.identity_view());
  cached_hyper_ = &h;
  cached_view_ = v;
  return *v;
}

std::uint64_t context::strand_id() const { return ped_mix(ped_hash_, rank_); }

std::uint64_t context::dprng_draw() {
  // Chain the strand id with the per-strand draw index; draws_ resets when
  // the rank advances, so the k-th draw of a strand is schedule-invariant.
  return ped_mix(strand_id(), ++draws_);
}

ped::pedigree context::pedigree() const {
  // Collect birth ranks leaf-to-root; every field read here is immutable
  // after the frame's construction, and a parent strictly outlives its
  // children, so the walk is safe even from a stolen child's worker.
  ped::pedigree p;
  std::uint64_t depth = 0;
  for (const context* f = this; f->parent_ != nullptr; f = f->parent_) ++depth;
  p.ranks.resize(depth + 1);
  p.ranks[depth] = rank_;
  std::uint64_t i = depth;
  for (const context* f = this; f->parent_ != nullptr; f = f->parent_) {
    p.ranks[--i] = f->birth_rank_;
  }
  return p;
}

void worker_stats::merge(const worker_stats& o) {
  spawns += o.spawns;
  steals += o.steals;
  steal_attempts += o.steal_attempts;
  tasks_executed += o.tasks_executed;
  max_frame_depth = std::max(max_frame_depth, o.max_frame_depth);
  peak_deque = std::max(peak_deque, o.peak_deque);
  peak_live_frames = std::max(peak_live_frames, o.peak_live_frames);
  backoff_naps += o.backoff_naps;
  magazine_refills += o.magazine_refills;
  magazine_returns += o.magazine_returns;
  slabs_created += o.slabs_created;
  oversize_allocs += o.oversize_allocs;
  for (std::size_t b = 0; b < steal_distance_buckets; ++b) {
    steal_distance[b] += o.steal_distance[b];
  }
  if (steals_by_victim.size() < o.steals_by_victim.size()) {
    steals_by_victim.resize(o.steals_by_victim.size(), 0);
  }
  for (std::size_t v = 0; v < o.steals_by_victim.size(); ++v) {
    steals_by_victim[v] += o.steals_by_victim[v];
  }
}

}  // namespace cilkpp::rt
