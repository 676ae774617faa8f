// Per-worker slot stack and the per-frame windows on it — the storage that
// makes the spawn/join path lock-free and allocation-free.
//
// Every cilk_spawn reserves one slot in the spawning frame. The slot holds
// the child's spawn record (its task object and closure) while the child
// waits in a deque or runs, and afterwards receives the child's folded
// reducer views and exception, possibly from another worker, while the
// owner keeps appending slots for further spawns.
//
//   * Each worker owns one retained slot_stack. Slots live in fixed-size
//     chunks that are allocated once and never moved, so a slot's address
//     is stable from its push until the stack is popped below it. A child
//     (and a thief holding its task pointer) can keep a raw frame_slot*
//     across its whole execution.
//   * A frame's slot_arena is a WINDOW [base, top) on its worker's stack.
//     Windows nest like the native call stack: a frame runs only on the
//     worker that created it, every frame nested inside it on that worker
//     (a call, or a task run while it helps at a sync) syncs before it
//     returns, and the window is released when the frame ends. So the
//     window of the frame that is currently executing is always the top of
//     its worker's stack, and appending is a bump of the stack top.
//   * All STRUCTURAL mutation (append, clear, release) is owner-only: only
//     the strand executing a frame spawns through it. Children write only
//     the CONTENTS of their own slot, each slot has exactly one writing
//     child, and the parent reads contents only after the join counter says
//     the child is done (DESIGN.md §4 "lock-free join").
//
// Invariant: every slot at or above the stack top is pristine (no views, no
// exception), so a new window starts clean without touching memory.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <vector>

#include "runtime/hyper_iface.hpp"
#include "support/assert.hpp"
#include "support/cache.hpp"

namespace cilkpp::rt {

/// One strand segment's reducer views, or one spawned child: its spawn
/// record while it runs, then its folded result. Window order is serial
/// execution order (Sec. 5's ordered reduction folds slots strictly left
/// to right).
struct alignas(cache_line_size) frame_slot {
  /// Bytes available in-slot for a spawn record (task header + closure);
  /// larger records fall back to task_allocate.
  static constexpr std::size_t record_bytes = 112;

  alignas(std::max_align_t) unsigned char record[record_bytes];
  view_map views;
  std::exception_ptr exception;  // child slots only
  bool is_child = false;

  void reset() {
    views.clear();
    exception = nullptr;
    is_child = false;
  }
};

/// A worker's retained stack of frame slots. Owner-only: the worker's own
/// thread is the only one that pushes or pops.
class slot_stack {
 public:
  static constexpr std::size_t chunk_slots = 32;

  slot_stack() = default;
  slot_stack(const slot_stack&) = delete;
  slot_stack& operator=(const slot_stack&) = delete;

  std::size_t top() const { return top_; }

  /// The i-th slot (i < top()); its address never changes.
  frame_slot& at(std::size_t i) {
    return chunks_[i / chunk_slots]->slots[i % chunk_slots];
  }

  /// Pushes one (pristine) slot. Chunks are allocated the first time the
  /// stack grows into them and retained afterwards.
  frame_slot& push() {
    if (top_ == chunks_.size() * chunk_slots) [[unlikely]] add_chunk();
    return at(top_++);
  }

  /// Pops every slot at or above `base`. The caller restores the pristine
  /// invariant first (slot_arena::clear / reset_clean).
  void pop_to(std::size_t base) {
    CILKPP_ASSERT(base <= top_, "slot stack popped above its top");
    top_ = base;
  }

 private:
  struct chunk {
    frame_slot slots[chunk_slots];
  };

  /// Kept out of the spawn path: runs once per chunk in the stack's life.
  [[gnu::noinline]] void add_chunk() {
    chunks_.push_back(std::make_unique<chunk>());
  }

  std::vector<std::unique_ptr<chunk>> chunks_;
  std::size_t top_ = 0;
};

/// A frame's window [base, top) on its worker's slot stack. Every member
/// requires the window to be the top one, which holds whenever the owning
/// frame's strand is the one calling.
class slot_arena {
 public:
  explicit slot_arena(slot_stack& stack) : stack_(&stack), base_(stack.top()) {}
  slot_arena(const slot_arena&) = delete;
  slot_arena& operator=(const slot_arena&) = delete;

  /// Owner-only: appends a slot and returns its address, which stays valid
  /// until the window is cleared or released.
  frame_slot* append(bool is_child) {
    frame_slot* s = &stack_->push();
    s->is_child = is_child;
    segments_ += is_child ? 0 : 1;
    return s;
  }

  /// True if any slot appended since the last clear() is a child slot.
  bool has_children() const { return size() != segments_; }

  /// True if every slot is a child slot (no strand segment was opened —
  /// the frame touched no reducer since the last fold).
  bool all_children() const { return segments_ == 0; }

  std::size_t size() const { return stack_->top() - base_; }
  bool empty() const { return stack_->top() == base_; }

  /// Most recently appended slot; null when empty.
  frame_slot* last() { return empty() ? nullptr : &stack_->at(stack_->top() - 1); }

  /// Visits every slot in append (serial) order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::size_t top = stack_->top();
    for (std::size_t i = base_; i < top; ++i) fn(stack_->at(i));
  }

  /// Owner-only: destroys slot contents and empties the window.
  /// Precondition: no child may still write into a slot.
  void clear() {
    for_each([](frame_slot& s) { s.reset(); });
    reset_clean();
  }

  /// Owner-only reset for slots whose CONTENTS are known pristine (views
  /// empty, exception null — nothing was ever delivered into them): drops
  /// the structure without walking the slots. Stale is_child marks are fine;
  /// append() overwrites the mark on every reuse. This is the whole fold of
  /// the no-reducer spawn+sync fast path, so it must stay O(1).
  void reset_clean() {
    stack_->pop_to(base_);
    segments_ = 0;
  }

 private:
  slot_stack* stack_;
  std::size_t base_;
  std::size_t segments_ = 0;  ///< non-child slots in the window
};

}  // namespace cilkpp::rt
