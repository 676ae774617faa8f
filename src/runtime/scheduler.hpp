// The cilkpp work-stealing runtime (paper Sec. 3).
//
//   "When the runtime system starts up, it allocates as many operating-system
//    threads, called workers, as there are processors … Each worker's stack
//    operates like a work queue … When a worker runs out of work, it becomes
//    a thief and steals the top frame from another victim worker's stack."
//
// Library-level embedding. The Cilk++ compiler steals *continuations*; a
// library cannot capture a C++ continuation, so cilkpp uses the standard
// child-stealing formulation (DESIGN.md substitution #1): `spawn` pushes the
// child task on the worker's deque and the parent keeps running; `sync`
// drains remaining children, helping (executing its own deque bottom, then
// stealing) instead of blocking. The computation dag — and therefore the
// work, span, and reducer semantics — is the one the paper describes.
//
// Programming model:
//
//   cilk::scheduler sched;                       // workers = hw threads
//   int r = sched.run([&](cilk::context& ctx) {
//     int a = 0, b = 0;
//     ctx.spawn([&](cilk::context& child) { a = fib(child, n - 1); });
//     b = fib(ctx, n - 2);
//     ctx.sync();                                // cilk_sync
//     return a + b;                              // implicit sync ran already
//   });
//
// Every Cilk function instance is a `context`; `spawn` = cilk_spawn,
// `sync` = cilk_sync, `call` = a plain call of a Cilk function (scopes the
// callee's syncs and its implicit sync, exactly as in Cilk++).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "deque/chase_lev.hpp"
#include "pedigree/pedigree.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/hyper_iface.hpp"
#include "runtime/lowering.hpp"
#include "runtime/slot_arena.hpp"
#include "support/assert.hpp"
#include "support/cache.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "trace/event.hpp"
#include "trace/ring.hpp"

// Retired build switch, always 1: perfbench reads it.
#define CILKPP_STRESS_ENABLED 1

namespace cilkpp::rt {

class scheduler;
class context;
struct worker;

/// Scheduling boundaries at which an installed chaos_policy may perturb the
/// schedule (src/stress). Every one of these is a point where the paper's
/// guarantees must hold for *any* adversarial interleaving.
enum class chaos_point : std::uint8_t {
  spawn_push,     ///< a child task was pushed on the spawning worker's deque
  pop_bottom,     ///< a worker is about to pop its own deque bottom
  steal_attempt,  ///< a thief is about to probe a victim
  steal_success,  ///< a thief stole a task and is about to run it
  sync_enter,     ///< a frame entered a sync (explicit or implicit)
  sync_exit,      ///< a frame's sync completed
  task_run,       ///< a worker is about to execute a dequeued task
};

/// Schedule-perturbation hook. Installed via scheduler::install_chaos;
/// src/stress/chaos.hpp
/// provides the seeded implementation. Implementations are called
/// concurrently from every worker and must not throw; `perturb` may yield
/// or sleep but must always return (bounded delays only — an unbounded
/// stall would turn a liveness property into a deadlock).
class chaos_policy {
 public:
  virtual ~chaos_policy() = default;
  /// Called at each scheduling boundary; may delay the calling worker.
  virtual void perturb(unsigned worker_id, chaos_point p) = 0;
  /// True: the worker tries to steal before popping its own deque
  /// ("force-steal-everything" mode — maximizes task migration).
  virtual bool prefer_steal(unsigned worker_id) = 0;
  /// Victim override for one steal probe: return a victim id in
  /// [0, nworkers) different from worker_id, or nworkers to keep the
  /// default uniformly random choice.
  virtual std::size_t pick_victim(unsigned worker_id, std::size_t nworkers) = 0;
};

/// A spawned child's spawn record: what waits in a deque. It lives in the
/// child's own slot on the parent's slot stack (or, for a closure too big
/// for the slot, in a task_allocate block) and is destroyed by the child
/// itself, after its implicit sync and before it signals completion.
struct task {
  task(context* parent, frame_slot* slot, std::uint64_t ped)
      : parent_frame(parent), parent_slot(slot), child_ped_hash(ped) {}
  virtual ~task() = default;
  /// Runs the child on worker w (the calling thread's), delivers its results
  /// (reducer views, exception) into the parent's slot, destroys this
  /// record, and signals the parent. `stolen` is the thief's mark: true iff
  /// w stole the record rather than popping it from its own deque.
  virtual void execute(worker& w, bool stolen) = 0;

  context* parent_frame;
  /// The child's slot in the parent's window. Stable for the child's whole
  /// life, and exclusively the child's to write until it signals the
  /// parent.
  frame_slot* parent_slot;
  std::uint64_t child_ped_hash;  ///< pedigree prefix captured at spawn time
  /// The parent's rank at the spawn: the child's last rank-list element,
  /// needed only to materialize full pedigrees (the hash above carries the
  /// hot-path identity either way).
  std::uint64_t child_birth_rank = 0;

  std::uint64_t birth_rank() const {
    return child_birth_rank;
  }
};

/// True when a spawn record of type T fits in its child's slot; only the
/// records that do not fit are placed in a task_allocate block.
template <typename T>
inline constexpr bool record_in_slot =
    sizeof(T) <= frame_slot::record_bytes &&
    alignof(T) <= alignof(std::max_align_t);

/// Constructs a spawn record of type T for the child owning `slot`.
template <typename T, typename... Args>
T* emplace_record(frame_slot* slot, Args&&... args) {
  if constexpr (record_in_slot<T>) {
    return new (slot->record) T(slot, std::forward<Args>(args)...);
  } else {
    void* mem = task_allocate(sizeof(T));
    try {
      return new (mem) T(slot, std::forward<Args>(args)...);
    } catch (...) {
      task_deallocate(mem, sizeof(T));
      throw;
    }
  }
}

/// Destroys a record made by emplace_record. After this returns the slot
/// may be recycled as soon as the parent learns the child is done.
template <typename T>
void destroy_record(T* t) noexcept {
  t->~T();
  if constexpr (!record_in_slot<T>) task_deallocate(t, sizeof(T));
}

/// Steal-distance histogram buckets: log2-spaced worker distances. Bucket 0
/// is distance 0 (two workers pinned to the same CPU), bucket k ≥ 1 covers
/// distances [2^(k-1), 2^k), and the last bucket absorbs everything beyond.
inline constexpr std::size_t steal_distance_buckets = 8;

/// Per-worker statistics snapshot (paper Sec. 3.2: steals measure all
/// communication).
struct worker_stats {
  std::uint64_t spawns = 0;
  std::uint64_t steals = 0;          ///< successful steals
  std::uint64_t steal_attempts = 0;  ///< including empty/lost attempts
  std::uint64_t tasks_executed = 0;
  std::uint64_t max_frame_depth = 0; ///< deepest spawned frame executed here
  /// Deepest this worker's deque ever got (tasks awaiting execution). The
  /// busy-leaves-style bound checked by the stress oracle: at any instant a
  /// worker's deque holds only outstanding children of frames live on its
  /// stack, so peak_deque ≤ max spawns-per-frame · peak_live_frames.
  std::uint64_t peak_deque = 0;
  /// Peak number of frames (contexts) simultaneously live on this worker —
  /// its call depth including nested helping during syncs.
  std::uint64_t peak_live_frames = 0;
  /// Exponential-backoff naps taken between failed steal sweeps and the
  /// full park (see worker_main): high values mean thieves found the
  /// system drained repeatedly — starvation, not contention.
  std::uint64_t backoff_naps = 0;
  // --- Allocator activity attributed to this worker's thread: deltas of
  // the slab allocator's per-thread counters since the last reset_stats()
  // (src/alloc; all zero when the thread never allocated).
  std::uint64_t magazine_refills = 0;  ///< full magazines pulled from depot
  std::uint64_t magazine_returns = 0;  ///< full magazines pushed to depot
  std::uint64_t slabs_created = 0;     ///< 64 KiB slab carves on this thread
  std::uint64_t oversize_allocs = 0;   ///< requests past the largest class
  /// steal_distance[b]: successful steals whose victim sat at a distance in
  /// log2 bucket b from this worker (CPU-id distance when affinity masks
  /// are set, ring id-distance otherwise). Σ_b == steals. A locality-aware
  /// probe order shows up as mass in the low buckets.
  std::uint64_t steal_distance[steal_distance_buckets] = {};
  /// Steal provenance: steals_by_victim[v] = tasks this worker stole from
  /// worker v (Σ_v == steals). Empty only for a default-constructed value.
  std::vector<std::uint64_t> steals_by_victim;

  void merge(const worker_stats& o);
};

/// Bumps a single-writer statistics counter. Every worker counter below is
/// written only by its owning worker (snapshot/reset require quiescence), so
/// a plain load+store is race-free and avoids the lock-prefixed RMW a
/// fetch_add would put on the spawn/sync hot path.
inline void bump_counter(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// One worker: a deque plus scheduling state. Workers are created by the
/// scheduler; worker 0 belongs to the thread that calls run(). Counters are
/// relaxed atomics: each is written by its own worker but snapshot/reset by
/// whoever calls scheduler::stats().
struct worker {
  worker(unsigned id_, scheduler* sched_, std::uint64_t seed, unsigned nworkers)
      : id(id_), sched(sched_), solo(nworkers == 1), rng(seed),
        steals_from(nworkers) {}

  worker_stats snapshot_stats() const {
    worker_stats s;
    s.spawns = spawns.load(std::memory_order_relaxed);
    s.steals = steals.load(std::memory_order_relaxed);
    s.steal_attempts = steal_attempts.load(std::memory_order_relaxed);
    s.tasks_executed = tasks_executed.load(std::memory_order_relaxed);
    s.max_frame_depth = max_frame_depth.load(std::memory_order_relaxed);
    s.peak_deque = peak_deque.load(std::memory_order_relaxed);
    s.peak_live_frames = peak_live_frames.load(std::memory_order_relaxed);
    s.backoff_naps = backoff_naps.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < steal_distance_buckets; ++b) {
      s.steal_distance[b] = steal_dist_hist[b].load(std::memory_order_relaxed);
    }
    // Allocator attribution: delta of the owning thread's slab counters
    // against the baseline captured at the last reset. The counter block
    // is immortal, so this read is safe even after the thread exited.
    if (const auto* c = alloc_counters.load(std::memory_order_acquire)) {
      s.magazine_refills =
          c->magazine_refills.load(std::memory_order_relaxed) - base_refills;
      s.magazine_returns =
          c->magazine_returns.load(std::memory_order_relaxed) - base_returns;
      s.slabs_created =
          c->slabs_created.load(std::memory_order_relaxed) - base_slabs;
      s.oversize_allocs =
          c->allocs[alloc::oversize_row].load(std::memory_order_relaxed) -
          base_oversize;
    }
    s.steals_by_victim.reserve(steals_from.size());
    for (const auto& c : steals_from) {
      s.steals_by_victim.push_back(c.load(std::memory_order_relaxed));
    }
    return s;
  }

  void reset_stats() {
    spawns.store(0, std::memory_order_relaxed);
    steals.store(0, std::memory_order_relaxed);
    steal_attempts.store(0, std::memory_order_relaxed);
    tasks_executed.store(0, std::memory_order_relaxed);
    max_frame_depth.store(0, std::memory_order_relaxed);
    peak_deque.store(0, std::memory_order_relaxed);
    peak_live_frames.store(0, std::memory_order_relaxed);
    backoff_naps.store(0, std::memory_order_relaxed);
    for (auto& b : steal_dist_hist) b.store(0, std::memory_order_relaxed);
    // Slab counters are monotone and shared with every scheduler whose
    // worker runs on the same thread, so "reset" means re-basing deltas.
    if (const auto* c = alloc_counters.load(std::memory_order_acquire)) {
      base_refills = c->magazine_refills.load(std::memory_order_relaxed);
      base_returns = c->magazine_returns.load(std::memory_order_relaxed);
      base_slabs = c->slabs_created.load(std::memory_order_relaxed);
      base_oversize = c->allocs[alloc::oversize_row].load(std::memory_order_relaxed);
    }
    for (auto& c : steals_from) c.store(0, std::memory_order_relaxed);
  }

  /// Publishes the owning thread's slab counter block (called from
  /// worker_main for pool workers, from run() for worker 0) and captures
  /// the baselines so the first snapshot doesn't charge this scheduler
  /// for allocator activity that predates it on the same thread.
  void attach_alloc_counters() {
    if (alloc_counters.load(std::memory_order_relaxed) != nullptr) return;
    const alloc::slab_thread_counters* c = alloc::slab_local_counters();
    base_refills = c->magazine_refills.load(std::memory_order_relaxed);
    base_returns = c->magazine_returns.load(std::memory_order_relaxed);
    base_slabs = c->slabs_created.load(std::memory_order_relaxed);
    base_oversize = c->allocs[alloc::oversize_row].load(std::memory_order_relaxed);
    alloc_counters.store(c, std::memory_order_release);
  }

  /// Live-frame census at a frame's start (depth = its spawn depth) and
  /// end. Both run on this worker (a frame never migrates), so the
  /// counters are single-writer and load-max-store is race-free. The live
  /// count is this worker's call depth including nested helping; its peak
  /// bounds the deque depth in the stress oracle's busy-leaves check.
  void frame_entered(std::uint64_t depth) {
    if (depth > max_frame_depth.load(std::memory_order_relaxed)) {
      max_frame_depth.store(depth, std::memory_order_relaxed);
    }
    bump_counter(live_frames);
    const std::uint64_t live = live_frames.load(std::memory_order_relaxed);
    if (live > peak_live_frames.load(std::memory_order_relaxed)) {
      peak_live_frames.store(live, std::memory_order_relaxed);
    }
  }
  void frame_left() {
    const std::uint64_t prior = live_frames.load(std::memory_order_relaxed);
    CILKPP_ASSERT(prior != 0, "live-frame census underflow");
    live_frames.store(prior - 1, std::memory_order_relaxed);
  }

  unsigned id;
  scheduler* sched;
  /// The scheduler has this one worker only: no pool thread exists, so no
  /// thief can race the owner and its deque pops need no fence or CAS.
  const bool solo;
  chase_lev_deque<task*> deque;  // top_/bottom_ are line-padded internally
  xoshiro256 rng;
  /// Owner-only: the slot windows of every frame live on this worker, and
  /// the spawn records of their children (see runtime/slot_arena.hpp).
  slot_stack slots;
  /// Single-writer stat block (every bump_counter target): 8 counters = 64
  /// bytes on exactly one line of their own, so the owner's spawn/sync-path
  /// stores never ping-pong a line shared with the thief-facing deque
  /// fields above or the install pointers below (cilk::memlens lints
  /// exactly this shape as a padding record when regions co-reside).
  alignas(cache_line_size) std::atomic<std::uint64_t> spawns{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> steal_attempts{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> max_frame_depth{0};
  std::atomic<std::uint64_t> peak_deque{0};
  /// Frames currently live on this worker's stack; incremented/decremented
  /// by context ctor/dtor (both always run on the home worker). Zero for
  /// every worker once a run is quiescent — the shutdown-balance oracle.
  std::atomic<std::uint64_t> live_frames{0};
  std::atomic<std::uint64_t> peak_live_frames{0};
  /// steals_from[v]: successful steals whose victim was worker v. Sized at
  /// construction and never resized (atomics are immovable). Starts the
  /// next line so the stat block above keeps its line exclusive.
  alignas(cache_line_size) std::vector<std::atomic<std::uint64_t>> steals_from;
  // --- Thief-side state: written only while this worker has no work of
  // its own, so none of it contends with the spawn path.
  /// Victim ids in near-first order (closest CPU / ring distance first);
  /// built once at scheduler construction, immutable afterwards.
  std::vector<std::uint32_t> probe_order;
  /// victim_bucket[v]: log2 distance bucket of victim v from this worker.
  std::vector<std::uint8_t> victim_bucket;
  std::atomic<std::uint64_t> backoff_naps{0};
  std::atomic<std::uint64_t> steal_dist_hist[steal_distance_buckets] = {};
  /// The owning thread's slab counter block (immortal; see src/alloc) and
  /// the baselines snapshots subtract. Null until the thread first enters
  /// worker_main / run().
  std::atomic<const alloc::slab_thread_counters*> alloc_counters{nullptr};
  std::uint64_t base_refills = 0;
  std::uint64_t base_returns = 0;
  std::uint64_t base_slabs = 0;
  std::uint64_t base_oversize = 0;
  /// Installed by scheduler::install_chaos; null when no chaos policy is
  /// active. Read on every scheduling boundary (one load+branch when idle).
  /// Own line: the install store (another thread) must not invalidate any
  /// line the owner writes on the hot path.
  alignas(cache_line_size) std::atomic<chaos_policy*> chaos{nullptr};
  /// Installed by trace::session via scheduler::install_trace; null when no
  /// trace is being captured. Only this worker pushes into the ring.
  std::atomic<trace::event_ring*> trace_ring{nullptr};
};

/// The trace ring attached to w, or null. Hooks change only between runs,
/// so each entry point of the spawn/sync path (a spawn, a sync, a task's
/// execute) loads it once and hands it to every record it makes.
inline trace::event_ring* trace_ring_of(const worker* w) {
  return w->trace_ring.load(std::memory_order_acquire);
}

/// Stamps one event and pushes it on `ring`, worker w's own. Out of line
/// and cold: an untraced spawn/sync path pays a null test per entry point
/// and keeps the clock read and the push out of its code.
[[gnu::cold]] void trace_emit(trace::event_ring* ring, const worker& w,
                              trace::event_kind kind, std::uint64_t frame,
                              std::uint64_t aux64, std::uint32_t aux32,
                              std::uint16_t aux16);

/// Records one trace event on `ring` (from trace_ring_of(&w)), if any.
inline void trace_record(trace::event_ring* ring, const worker& w,
                         trace::event_kind kind, std::uint64_t frame,
                         std::uint64_t aux64 = 0, std::uint32_t aux32 = 0,
                         std::uint16_t aux16 = 0) {
  if (ring != nullptr) [[unlikely]] {
    trace_emit(ring, w, kind, frame, aux64, aux32, aux16);
  }
}

/// Records one trace event on w's ring, if a trace session is attached: the
/// form for a site that is its entry point's only record (a spawn, a steal,
/// a root or called frame's end).
inline void trace_record(worker* w, trace::event_kind kind, std::uint64_t frame,
                         std::uint64_t aux64 = 0, std::uint32_t aux32 = 0,
                         std::uint16_t aux16 = 0) {
  trace_record(trace_ring_of(w), *w, kind, frame, aux64, aux32, aux16);
}

/// Fires one chaos point on w, if a chaos policy is installed. One
/// load+branch when no policy is active.
inline void chaos_perturb(worker* w, chaos_point p) {
  if (chaos_policy* c = w->chaos.load(std::memory_order_acquire)) {
    c->perturb(w->id, p);
  }
}

/// A Cilk function instance (a "full frame"): owns the children it spawned
/// and the reducer view segments of its strands. Created only by the
/// runtime (run/spawn/call); user code receives references.
class context {
 public:
  context(const context&) = delete;
  context& operator=(const context&) = delete;
  ~context();

  /// cilk_spawn: start fn(child_context&) as a child that may run in
  /// parallel with the rest of this function.
  template <typename Fn>
  void spawn(Fn&& fn);

  /// parallel_for's grain when the caller passes 0: default_grain(n, P).
  std::uint64_t pfor_default_grain(std::uint64_t n) const;

  /// cilk_sync: wait for every child this function instance spawned.
  /// Rethrows the (serially earliest) child exception, if any.
  void sync();

  /// A plain call of a Cilk function: callee gets its own frame so its
  /// syncs are local and it syncs implicitly before returning.
  template <typename Fn>
  auto call(Fn&& fn) -> decltype(fn(std::declval<context&>()));

  /// Engine-compatibility hook (the dag recorder charges work here;
  /// the real runtime measures wall time instead).
  void account(std::uint64_t) {}

  /// The strand's current view of hyperobject h (hyperobject library entry
  /// point). The reference is stable until this strand's next spawn/sync;
  /// re-fetch after either.
  view_base& hyper_view(hyperobject_base& h);

  /// Removes and returns this frame's folded view of h (null if h was never
  /// touched here). Precondition: no pending children (call sync() first).
  /// This is how a locally-scoped hyperobject retires its state before
  /// going out of scope; see reducer::collect.
  std::unique_ptr<view_base> extract_view(hyperobject_base& h);

  scheduler& sched() const { return *sched_; }
  /// Worker executing this frame (stable: child stealing never migrates a
  /// frame off the worker that started it).
  unsigned worker_id() const { return home_->id; }
  /// Spawn depth of this frame: 0 for the root.
  std::uint64_t depth() const { return depth_; }
  /// Slots currently live on this worker's slot stack: the windows of the
  /// frames nested on it, this one's on top. Introspection for tests.
  std::size_t slot_stack_top() const { return home_->slots.top(); }

  /// Pedigree-based strand identifier: a 64-bit value that identifies the
  /// currently executing strand *independent of scheduling* — the same
  /// strand gets the same id on every run and any worker count (the
  /// mechanism behind deterministic parallel RNG in Cilk-family systems).
  /// Computed as a hash chain over (parent pedigree, spawn rank), advanced
  /// at every spawn, call, and sync. Equals ped::hash(pedigree()).
  std::uint64_t strand_id() const;

  /// One deterministic pseudo-random draw for the current strand: the k-th
  /// draw of a given strand is identical across runs and worker counts.
  std::uint64_t dprng_draw();

  /// Materializes the current strand's full rank list by walking the live
  /// parent chain collecting birth ranks — O(depth), off the hot path (the
  /// chain's links and birth ranks are immutable after construction, and a
  /// parent outlives its children, so the walk is safe from any strand).
  ped::pedigree pedigree() const;

 private:
  friend class scheduler;
  template <typename>
  friend struct spawn_task;

  enum class kind : std::uint8_t { root, spawned, called };

  /// `ring` is trace_ring_of(home), loaded once by the caller.
  context(scheduler* sched, worker* home, context* parent, frame_slot* parent_slot,
          kind k, std::uint64_t ped_hash, std::uint64_t birth_rank, bool stolen,
          trace::event_ring* ring);

  /// Deterministic pedigree chaining: the child born at rank r of a frame
  /// with prefix h gets prefix ped_mix(h, r). Trace also uses the hash as
  /// the frame identity.
  static std::uint64_t ped_mix(std::uint64_t h, std::uint64_t r) {
    return ped::mix(h, r);
  }

  /// Owner-only: appends the child's slot, builds its spawn record there
  /// (or in a task_allocate block when T does not fit) and pushes it.
  template <typename T, typename... Args>
  void spawn_record(Args&&... args);

  /// Helps until all spawned children have completed (never throws).
  /// Inline part: pops and runs this frame's own children while no chaos
  /// policy is installed.
  void wait_children() noexcept;

  /// Out-of-line part of wait_children: the help-and-steal loop, taken
  /// when a child was stolen or a chaos policy is installed.
  void wait_stolen() noexcept;

  /// Folds all slots left-to-right into one segment; returns the serially
  /// earliest child exception (or null). Inline for the O(1) clean cases.
  std::exception_ptr fold_slots();

  /// Out-of-line part of fold_slots: the walk over a window whose slots
  /// hold views or an exception, or that holds a strand segment.
  std::exception_ptr fold_walk();

  /// What a finished spawned frame hands its parent.
  struct spawn_result {
    std::exception_ptr exception;
    view_map views;
  };

  /// Spawned-child epilogue, part 1: the implicit sync and fold, recorded
  /// on `ring`. A frame whose window is empty (it spawned nothing and
  /// opened no segment since its last sync) skips both inline.
  spawn_result join_spawned(std::exception_ptr body_exception,
                            trace::event_ring* ring) noexcept;

  /// Out-of-line part of join_spawned for a non-empty window: waits, folds,
  /// and moves the folded views and the serially earliest exception into r.
  void join_window(spawn_result& r) noexcept;

  /// Spawned-child epilogue, part 2 (after the spawn record is destroyed):
  /// delivers `r` into the parent's slot, records frame_end, and signals
  /// the parent — a plain decrement of its outstanding count when this
  /// child was popped by the parent's own worker, a release increment of
  /// its stolen-join counter when a thief ran it.
  void signal_parent(spawn_result& r, trace::event_ring* ring) noexcept;

  /// Out-of-line part of signal_parent: writes a non-empty result into the
  /// parent's slot.
  void deliver(spawn_result& r) noexcept;

  /// A finishing child's last touch of its parent frame (this).
  void signal_join(bool stolen) noexcept {
    if (stolen) {
      stolen_joined_.fetch_add(1, std::memory_order_release);
    } else {
      CILKPP_ASSERT(outstanding_ != 0, "outstanding child count underflow");
      --outstanding_;
    }
  }

  /// Runs fn on a fresh called frame through its implicit sync and
  /// destroys the frame, releasing its window; the frame's folded views are
  /// left in `views` for fold_called.
  template <typename Fn>
  auto run_called(Fn& fn, view_map& views) -> decltype(fn(std::declval<context&>()));

  /// Called-frame epilogue: implicit sync (throws), then hands the folded
  /// views out.
  void finish_called(view_map& views);

  /// Folds a finished called frame's views into this frame's current
  /// segment. The callee's window is gone by then, so this window is the
  /// top of the slot stack again.
  void fold_called(view_map&& views);

  /// Root epilogue: implicit sync (throws), absorb views into hyperobjects.
  void finish_root();

  /// Root epilogue on the exception path: joins children and still absorbs
  /// completed strands' reducer views (updates are not silently dropped),
  /// discarding any child exceptions — the body's exception wins.
  void finish_root_abandoned() noexcept;

  /// Moves this frame's single folded segment out (after fold_slots()).
  view_map take_final_views();

  /// Advances the pedigree rank (called at spawn and sync so the strands a
  /// frame executes before/after each parallel-control event are distinct).
  /// Also invalidates the strand-local view cache: the next reducer access
  /// must open a fresh segment.
  void bump_rank() {
    ++rank_;
    draws_ = 0;
    cached_hyper_ = nullptr;
  }

  // --- Owner-only fields: written exclusively by the strand executing
  // this frame. No lock anywhere on the spawn/join path — see DESIGN.md §4
  // ("lock-free join") for the ownership and fence argument.
  scheduler* sched_;
  worker* home_;
  context* parent_;
  frame_slot* parent_slot_;
  kind kind_;
  std::uint64_t depth_;
  std::uint64_t ped_hash_;  // hash of this frame's pedigree prefix
  std::uint64_t rank_ = 0;  // spawn/sync rank within this frame
  std::uint64_t birth_rank_ = 0;  // parent's rank when this frame was born
  std::uint64_t draws_ = 0;       // dprng draws on the current strand
  bool finished_ = false;
  bool stolen_ = false;  // spawned frames: run by a thief, not by the parent's worker
  // Strand-local view cache: repeat accesses to the same reducer within a
  // strand skip the flat-map scan. Safe because a view object is
  // heap-stable and only this frame's strand mutates the segment map;
  // bump_rank() clears it at every spawn/sync.
  hyperobject_base* cached_hyper_ = nullptr;
  view_base* cached_view_ = nullptr;
  // Slot window on home_'s slot stack: structure (append/clear) is
  // owner-only; a completing child writes only the contents of its own slot.
  slot_arena arena_;
  // The split join counter. outstanding_ is owner-only: children spawned
  // since the last join, minus those this worker popped and ran itself
  // (they decrement it on the same thread). Only stolen children touch
  // stolen_joined_, with a release increment when they finish;
  // wait_children is done when its acquire load equals outstanding_.
  std::uint32_t outstanding_ = 0;
  std::atomic<std::uint32_t> stolen_joined_{0};
  /// Set (relaxed) by any completing child that delivered reducer views or
  /// an exception into its slot; a stolen child's release increment
  /// publishes it with the slot contents. While it stays false, the
  /// post-sync fold knows every child slot is still pristine and skips the
  /// fold walk entirely (fold_slots' clean fast path).
  std::atomic<bool> child_delivered_{false};
};

/// Construction-time configuration for a scheduler instance. A process may
/// own many independent schedulers (src/serve's runtime_set builds on this):
/// each gets its own worker pool, deques, and statistics, and a thief only
/// ever probes deques of its own instance — cross-instance stealing is
/// impossible by construction, which is what makes instances *tenants*.
struct scheduler_options {
  /// 0 = one worker per hardware thread, unless `affinity` is non-empty, in
  /// which case 0 = one worker per listed CPU.
  unsigned workers = 0;
  /// CPU ids this instance's workers are pinned to (worker i gets
  /// affinity[i mod affinity.size()], so a mask smaller than the worker
  /// count round-robins). Pool threads pin themselves at startup via
  /// pthread_setaffinity_np; off Linux the list is recorded but pinning is
  /// a no-op. Worker 0 is the thread that calls run() — the runtime never
  /// re-pins a caller's thread behind its back; call pin_caller() from a
  /// thread you dedicate to this instance (job_server's dispatchers do).
  std::vector<unsigned> affinity;
  /// Instance label for stats, benches, and failure reports.
  std::string name;
};

/// The work-stealing scheduler. Owns P workers; P-1 pool threads plus the
/// thread that calls run(). Safe to construct/destroy repeatedly; run() may
/// be called many times, from one thread at a time.
class scheduler {
 public:
  /// workers == 0 means one per hardware thread.
  explicit scheduler(unsigned workers = 0)
      : scheduler(scheduler_options{workers, {}, {}}) {}
  explicit scheduler(scheduler_options options);
  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  /// Executes fn(root_context&) to completion on this scheduler and returns
  /// its result. Hyperobject updates are folded into their hyperobjects
  /// before run() returns. Rethrows fn's (or a child's) exception.
  template <typename Fn>
  auto run(Fn&& fn) -> decltype(fn(std::declval<context&>()));

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  const scheduler_options& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  /// Pins the *calling* thread to this instance's worker-0 CPU (the first
  /// entry of the affinity mask). run() executes worker 0 on the caller's
  /// thread, so a thread dedicated to this instance calls this once to
  /// complete the pinning the pool threads already did for workers 1..P-1.
  /// Returns false (and changes nothing) when no mask is configured or the
  /// platform cannot pin (non-Linux, restricted container).
  bool pin_caller() const;

  /// How many pool threads successfully pinned themselves at startup
  /// (0 when no affinity mask was given; at most num_workers()-1).
  unsigned affinity_applied() const {
    return affinity_applied_.load(std::memory_order_acquire);
  }

  /// Binds the calling thread to exactly the given CPU set. Returns false
  /// if the set is empty or the platform refuses (non-Linux builds always
  /// return false; callers must treat pinning as best-effort).
  static bool set_thread_affinity(const std::vector<unsigned>& cpus);

  /// Aggregate statistics since construction / last reset.
  ///
  /// Quiescence requirement: snapshots and resets are unsynchronized with
  /// the workers' relaxed counter updates, so calling any of these while a
  /// run() is in flight would tear multi-counter invariants (e.g. a reset
  /// could split a steal between steals and steals_by_victim). All three
  /// assert that no run is active; call them only between runs.
  worker_stats stats() const;
  std::vector<worker_stats> per_worker_stats() const;
  void reset_stats();

  /// Trace hooks (src/trace): installs one event ring per worker (rings
  /// must outlive the capture; rings.size() == num_workers()). May only be
  /// called while no run() is in flight. Use trace::session rather than
  /// calling these directly.
  void install_trace(const std::vector<trace::event_ring*>& rings);
  void remove_trace();

  /// Chaos hooks (src/stress): installs a schedule-perturbation policy on
  /// every worker / removes it. May only be called while no run() is in
  /// flight. The policy must stay valid until the scheduler is destroyed
  /// or a later run() completes: remove_chaos only stops *new* decisions —
  /// a worker that loaded the pointer during the previous run's tail may
  /// still be completing one last perturbation call.
  void install_chaos(chaos_policy* policy);
  void remove_chaos();

 private:
  friend class context;
  template <typename>
  friend struct spawn_task;

  void worker_main(unsigned id);
  /// Fills every worker's near-first probe order and distance buckets from
  /// the affinity masks (CPU distance) or worker ids (ring distance).
  void build_probe_orders();
  /// Pops own bottom or steals once; executes what it finds.
  /// Returns false if no work was found anywhere.
  bool help_one(worker& w);
  bool steal_and_execute(worker& w);
  /// Runs a dequeued task on w after its chaos point.
  void execute(worker& w, task* t, bool stolen);
  /// Runs a dequeued task on w: the census bump and the task itself.
  void run_task(worker& w, task* t, bool stolen);
  /// Pops w's own deque bottom (null when empty): inline and exclusive on a
  /// solo worker, the out-of-line concurrent pop otherwise.
  task* pop_own(worker& w);
  task* pop_shared(worker& w);
  /// Pushes a spawned child on w's deque; the wake half is wake_idlers.
  void push(worker& w, task* t);
  /// Wake half of the parking protocol (see worker_main); its fence keeps
  /// it out of line.
  void wake_idlers();
  /// Racy probe: true if any worker's deque looks non-empty. Used by the
  /// idle-parking recheck; exactness is provided by the protocol's fences,
  /// not by this estimate.
  bool any_work() const;

  static worker* current_worker();
  static void set_current_worker(worker* w);

  scheduler_options options_;
  std::vector<std::unique_ptr<worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> run_active_{false};
  std::atomic<unsigned> affinity_applied_{0};

  // Idle parking: workers nap when the whole system looks empty, under the
  // register→recheck→wait protocol (see worker_main): a worker increments
  // idlers_ BEFORE its final probe, and a pusher that sees idlers_ > 0
  // bumps wake_epoch_ under idle_mu_ and notifies — so a push can never
  // fall between a worker's last probe and its wait without either the
  // probe seeing the task or the waiter seeing the epoch move.
  std::atomic<std::uint32_t> idlers_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::uint64_t wake_epoch_ = 0;  // guarded by idle_mu_
};

// ---------------------------------------------------------------------------
// Template implementations.

template <typename Fn>
struct spawn_task final : task {
  spawn_task(frame_slot* slot, context* parent, std::uint64_t ped, Fn f)
      : task(parent, slot, ped), fn(std::move(f)) {}

  void execute(worker& w, bool stolen) override {
    trace::event_ring* const ring = trace_ring_of(&w);
    context child(parent_frame->sched_, &w, parent_frame, parent_slot,
                  context::kind::spawned, child_ped_hash, birth_rank(), stolen,
                  ring);
    std::exception_ptr body_exception;
    try {
      fn(child);
    } catch (...) {
      body_exception = std::current_exception();
    }
    context::spawn_result r =
        child.join_spawned(std::move(body_exception), ring);
    // The closure dies here: after the implicit sync, because grandchildren
    // may read its captures until then, and before the signal, because
    // after it the parent may recycle the slot this record lives in.
    destroy_record(this);
    child.signal_parent(r, ring);
  }

  Fn fn;
};

// ---------------------------------------------------------------------------
// The spawn/sync fast path (DESIGN.md §4, "lock-free join"). Everything an
// unstolen spawn+sync executes is defined here, inline. What only a steal, a
// chaos policy, a throw, reducer views or a trace record need is a call to
// an out-of-line part in context.cpp or scheduler.cpp, and each part exists
// once: the fast path is the common case of the same code, not a copy of
// it. Each entry point loads each hook once.

inline context::context(scheduler* sched, worker* home, context* parent,
                        frame_slot* parent_slot, kind k, std::uint64_t ped_hash,
                        std::uint64_t birth_rank, bool stolen,
                        trace::event_ring* ring)
    : sched_(sched),
      home_(home),
      parent_(parent),
      parent_slot_(parent_slot),
      kind_(k),
      depth_(parent == nullptr ? 0 : parent->depth_ + 1),
      ped_hash_(ped_hash),
      birth_rank_(birth_rank),
      stolen_(stolen),
      arena_(home->slots) {
  home_->frame_entered(depth_);
  trace_record(ring, *home_, trace::event_kind::frame_begin, ped_hash_,
               parent_ == nullptr ? 0 : parent_->ped_hash_,
               static_cast<std::uint32_t>(depth_),
               static_cast<std::uint16_t>(kind_));
}

inline context::~context() {
  CILKPP_ASSERT(finished_, "context destroyed before its epilogue ran");
  // The destructor runs on the home worker for every frame kind (child
  // stealing never migrates a frame), so begin/end pairs nest per worker.
  //
  // Spawned frames record frame_end inside signal_parent instead: this
  // destructor runs *after* the parent was signalled, so the root sync
  // could already have passed and trace teardown (session::assemble →
  // scheduler::remove_trace + ring drain) could race a record issued here.
  // Root and called frames are destroyed strictly inside run() on the
  // thread that will later tear the trace down, so recording here is safe
  // for them.
  if (kind_ != kind::spawned) {
    trace_record(home_, trace::event_kind::frame_end, ped_hash_);
  }
  // Release the window. Normally it is empty by now (every epilogue folds
  // and takes its views); an exception that unwound through a call leaves
  // slot contents behind, which must not leak into the next window here.
  if (!arena_.empty()) [[unlikely]] arena_.clear();
  home_->frame_left();
}

inline task* scheduler::pop_own(worker& w) {
  if (w.solo) return w.deque.pop_bottom_exclusive().value_or(nullptr);
  return pop_shared(w);
}

inline void scheduler::run_task(worker& w, task* t, bool stolen) {
  bump_counter(w.tasks_executed);  // w is the executing worker: single writer
  t->execute(w, stolen);  // destroys the record itself; t is dead afterwards
}

inline void scheduler::push(worker& w, task* t) {
  w.deque.push_bottom(t);
  // Owner-only peak tracking: push_bottom runs on w's thread, so the
  // estimate is exact here and the load-max-store is single-writer.
  const auto depth = static_cast<std::uint64_t>(w.deque.size_estimate());
  if (depth > w.peak_deque.load(std::memory_order_relaxed)) {
    w.peak_deque.store(depth, std::memory_order_relaxed);
  }
  chaos_perturb(&w, chaos_point::spawn_push);
  // A solo worker has nobody to wake, so its spawn stays fence-free.
  if (!w.solo) wake_idlers();
}

inline void context::wait_children() noexcept {
  // The paper's sync is a *local* barrier: only this frame's children are
  // awaited. Work-first: while no chaos policy asks for another order, this
  // worker runs its own children straight off its deque bottom, on this
  // thread, and each decrements outstanding_ as it finishes. The bottom
  // entry is always one of this frame's children: frames nested inside it
  // synced before returning, so nothing newer is queued, and thieves take
  // the oldest entries first, so once one of this frame's children is
  // stolen every older entry is gone too. An empty pop with children still
  // outstanding therefore means they were all stolen; only then (or under
  // chaos) does wait_stolen's help-and-steal loop run.
  worker& w = *home_;
  if (w.chaos.load(std::memory_order_acquire) == nullptr) [[likely]] {
    while (outstanding_ != 0) {
      task* t = sched_->pop_own(w);
      if (t == nullptr) break;
      sched_->run_task(w, t, /*stolen=*/false);
    }
    // Every child ran here, so none touched stolen_joined_ either.
    if (outstanding_ == 0) return;
  }
  wait_stolen();
}

inline std::exception_ptr context::fold_slots() {
  // No child slot since the last fold means nothing to wait for and
  // nothing to fold — without child slots the window holds at most one
  // owner segment (new segments are only opened when the previous slot is
  // a child slot), which a fold would pass through unchanged. The view
  // cache stays valid too, since no view moves.
  if (!arena_.has_children()) return nullptr;
  // Precondition (asserted): children all completed — stolen children's
  // release increments were paired by wait_children's acquire, so plain
  // reads of slot contents (and of child_delivered_) are ordered after the
  // children's writes.
  CILKPP_ASSERT(outstanding_ == 0, "fold_slots with children still running");
  // Clean case: no child delivered views or an exception (every child
  // slot is still pristine) and no strand segment was opened, so the fold
  // is the identity — drop the window in O(1). This is the steady state
  // of a spawn+sync loop without reducers.
  if (!child_delivered_.load(std::memory_order_relaxed) &&
      arena_.all_children()) {
    arena_.reset_clean();
    return nullptr;
  }
  return fold_walk();
}

inline void context::sync() {
  CILKPP_ASSERT(!finished_, "sync on a finished frame");
  bump_rank();  // the strand after the sync is new
  trace::event_ring* const ring = trace_ring_of(home_);
  trace_record(ring, *home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_));
  wait_children();
  std::exception_ptr ex = fold_slots();
  trace_record(ring, *home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_));
  if (ex) std::rethrow_exception(ex);
}

inline context::spawn_result context::join_spawned(
    std::exception_ptr body_exception, trace::event_ring* ring) noexcept {
  trace_record(ring, *home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  // The body's exception unwound past the implicit sync, so it is what the
  // parent sees, even when a child threw too (the serial elision would have
  // thrown that child's first); join_window falls back to the serially
  // earliest child exception otherwise.
  spawn_result r{std::move(body_exception), {}};
  // An empty window means no child and no segment since the last sync:
  // nothing to wait for, fold, or hand over.
  if (!arena_.empty()) [[unlikely]] join_window(r);
  trace_record(ring, *home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  return r;
}

inline void context::signal_parent(spawn_result& r,
                                   trace::event_ring* ring) noexcept {
  if (!r.views.empty() || r.exception) [[unlikely]] deliver(r);
  finished_ = true;
  // frame_end must be recorded *before* the parent learns this child is
  // done: the signal may let the enclosing syncs — up to the root —
  // complete, after which run() returns and the trace session may detach
  // and drain the rings. Any record after this point would race that
  // teardown (lost events at best, a push into a freed ring at worst).
  trace_record(ring, *home_, trace::event_kind::frame_end, ped_hash_);
  parent_->signal_join(stolen_);
}

template <typename T, typename... Args>
void context::spawn_record(Args&&... args) {
  CILKPP_ASSERT(!finished_, "spawn on a finished frame");
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  trace_record(home_, trace::event_kind::spawn, ped_hash_, child_ped,
               static_cast<std::uint32_t>(rank_));
  bump_rank();  // the continuation after this spawn is a new strand
  // Entirely lock-free and, for a record that fits its slot, allocation-
  // free: an owner-only slot push, the record built in place, a plain
  // counter bump, and a Chase–Lev bottom push.
  frame_slot* slot = arena_.append(/*is_child=*/true);
  T* t = emplace_record<T>(slot, this, child_ped, std::forward<Args>(args)...);
  t->child_birth_rank = rank_ - 1;  // rank before the bump above
  ++outstanding_;
  bump_counter(home_->spawns);
  sched_->push(*home_, t);
}

template <typename Fn>
void context::spawn(Fn&& fn) {
  spawn_record<spawn_task<std::decay_t<Fn>>>(std::forward<Fn>(fn));
}

inline std::uint64_t context::pfor_default_grain(std::uint64_t n) const {
  return default_grain(n, sched().num_workers());
}

template <typename Fn>
auto context::run_called(Fn& fn, view_map& views)
    -> decltype(fn(std::declval<context&>())) {
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  const std::uint64_t child_birth = rank_;
  bump_rank();  // the continuation after the call is a new strand
  context child(sched_, home_, this, /*parent_slot=*/nullptr, kind::called,
                child_ped, child_birth, /*stolen=*/false, trace_ring_of(home_));
  using result = decltype(fn(child));
  if constexpr (std::is_void_v<result>) {
    try {
      fn(child);
    } catch (...) {
      child.wait_children();  // children must not outlive the frame
      child.finished_ = true;
      throw;
    }
    child.finish_called(views);
  } else {
    result r = [&] {
      try {
        return fn(child);
      } catch (...) {
        child.wait_children();
        child.finished_ = true;
        throw;
      }
    }();
    child.finish_called(views);
    return r;
  }
}

template <typename Fn>
auto context::call(Fn&& fn) -> decltype(fn(std::declval<context&>())) {
  using result = decltype(fn(std::declval<context&>()));
  view_map views;
  if constexpr (std::is_void_v<result>) {
    run_called(fn, views);
    fold_called(std::move(views));
  } else {
    result r = run_called(fn, views);
    fold_called(std::move(views));
    return r;
  }
}

template <typename Fn>
auto scheduler::run(Fn&& fn) -> decltype(fn(std::declval<context&>())) {
  bool expected = false;
  CILKPP_ASSERT(run_active_.compare_exchange_strong(expected, true),
                "concurrent or nested scheduler::run is not supported");
  CILKPP_ASSERT(current_worker() == nullptr,
                "run() may not be called from a worker thread");
  worker* const w0 = workers_[0].get();
  set_current_worker(w0);
  w0->attach_alloc_counters();

  context root(this, w0, nullptr, nullptr, context::kind::root,
               /*ped_hash=*/ped::root_seed, /*birth_rank=*/0, /*stolen=*/false,
               trace_ring_of(w0));
  auto cleanup = [&]() {
    set_current_worker(nullptr);
    run_active_.store(false);
  };

  using result = decltype(fn(root));
  try {
    if constexpr (std::is_void_v<result>) {
      fn(root);
      root.finish_root();
      cleanup();
    } else {
      result r = fn(root);
      root.finish_root();
      cleanup();
      return r;
    }
  } catch (...) {
    root.finish_root_abandoned();
    cleanup();
    throw;
  }
}

}  // namespace cilkpp::rt

/// Public spelling: the paper's system is "Cilk++"; the library namespace is
/// cilk to keep user code close to Fig. 1.
namespace cilk {
using context = cilkpp::rt::context;
using scheduler = cilkpp::rt::scheduler;
using scheduler_options = cilkpp::rt::scheduler_options;
}  // namespace cilk
