#include "cilkscreen/detector.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cilkpp::screen {

template <typename R>
sp_detector<R>::sp_detector() {
  const proc_id tree_root = tree_.add_root();
  CILKPP_ASSERT(tree_root == root(), "procedure numbering out of step");
  stats_.procedures = 1;
}

template <typename R>
proc_id sp_detector<R>::add_child(proc_id parent, proc_id child,
                                  proc_id tree_child) {
  CILKPP_ASSERT(tree_child == child, "procedure numbering out of step");
  ++stats_.procedures;
  peds_.on_child(parent, child);  // a spawn or a call consumes a parent rank
  return child;
}

template <typename R>
std::uint64_t sp_detector<R>::rank_of(proc_id p) const {
  return peds_.rank(p);
}

template <typename R>
const ped::proc_pedigrees* sp_detector<R>::pedigrees_or_null() const {
  return &peds_;
}

template <typename R>
proc_id sp_detector<R>::enter_spawn(proc_id parent) {
  // Fire before the child exists: any lock still held belongs to the
  // parent's (or an ancestor's) strand crossing this spawn boundary. The
  // pedigree update in add_child comes after, so lint sees the parent's
  // pre-spawn rank.
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::spawn, parent);
  const proc_id child = rel_.enter_spawn(parent);
  return add_child(parent, child, tree_.add_spawn(parent));
}

template <typename R>
void sp_detector<R>::exit_spawn(proc_id parent, proc_id child) {
  // The spawned child's strand ends here: locks it acquired and still
  // holds are abandoned.
  if (lint_ != nullptr) lint_->on_procedure_exit(child);
  rel_.exit_spawn(parent, child);
}

template <typename R>
proc_id sp_detector<R>::enter_call(proc_id parent) {
  const proc_id child = rel_.enter_call(parent);
  return add_child(parent, child, tree_.add_call(parent));
}

template <typename R>
void sp_detector<R>::exit_call(proc_id parent, proc_id child) {
  // The callee's implicit sync is the relation's business alone: a call
  // return is not a strand boundary the programmer wrote, so no lint event.
  rel_.exit_call(parent, child);
}

template <typename R>
void sp_detector<R>::sync(proc_id f) {
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::sync, f);
  rel_.sync(f);
  // Unconditional: the runtime's rank advances at every sync regardless of
  // pending children.
  peds_.on_sync(f);
}

template <typename R>
void sp_detector<R>::report(race_kind rk, std::uintptr_t addr,
                            const entry& first, proc_id current,
                            access_kind second_kind,
                            const char* second_label) {
  ++stats_.races_found;
  if (rk == race_kind::view) ++stats_.view_races;
  if (races_.size() >= max_reports) return;
  std::uint64_t key = (static_cast<std::uint64_t>(addr) << 3) |
                      (rk == race_kind::view ? 4u : 0u) |
                      (static_cast<std::uint64_t>(first.kind) << 1) |
                      static_cast<std::uint64_t>(second_kind);
  // Pedigree-keyed dedup: distinct endpoint strands at the same address and
  // kind pair are distinct races. Same-strand repeats still fold to one.
  key = ped::mix(ped::mix(key, peds_.strand_hash_at(first.proc, first.ped_rank)),
                 peds_.strand_hash(current));
  if (!reported_.insert(key).second) return;  // already reported this shape
  race_record r;
  r.kind = rk;
  r.address = addr;
  r.first = first.kind;
  r.second = second_kind;
  r.first_proc = first.proc;
  r.second_proc = current;
  r.first_ped = peds_.strand_at(first.proc, first.ped_rank);
  r.second_ped = peds_.strand(current);
  if (first.label != nullptr) r.first_label = first.label;
  if (second_label != nullptr) r.second_label = second_label;
  races_.push_back(std::move(r));
  races_sorted_ = false;
}

template <typename R>
void sp_detector<R>::on_access(proc_id current, const void* addr,
                               std::size_t size, access_kind kind,
                               const char* label) {
  const strand cur = rel_.strand_of(current);
  const auto parallel = [this, cur](const strand& s) {
    return rel_.parallel(cur, s);
  };
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t cur_rank = rank_of(current);
  // Cache-line sharing analysis rides the same stream and the same SP
  // query; it classifies whole accesses (not bytes), so it runs once per
  // event, before the byte loop.
  if (lens_ != nullptr) {
    lens_->on_access(cur, current, base, size, kind, label, parallel);
  }
  for (std::size_t k = 0; k < size; ++k) {
    shadow_.cell(base + k).hist.access(
        cur, current, cur_rank, kind, held_, label, parallel,
        [&](const entry& e) {
          report(race_kind::determinacy, base + k, e, current, kind, label);
        },
        stats_);
  }
  // Reducer awareness: a raw access on a registered hyperobject's value
  // bytes races with any logically parallel view access — no lockset can
  // suppress it, because views never take the raw path.
  for (hyper_state& hs : hypers_) {
    if (base + size <= hs.lo || hs.hi <= base) continue;
    for (const entry& e : hs.views.entries()) {
      const bool write_involved =
          e.kind == access_kind::write || kind == access_kind::write;
      if (write_involved && parallel(e.strand)) {
        report(race_kind::view, hs.lo, e, current, kind, label);
      }
    }
    // The serially-ordered counterpart is lint's view-escape check: a view
    // reference cached across a strand boundary.
    if (lint_ != nullptr) {
      lint_->on_raw_view_access(hs.id, current, parallel, label);
    }
  }
}

template <typename R>
void sp_detector<R>::on_read(proc_id current, const void* addr,
                             std::size_t size, const char* label) {
  ++stats_.reads_checked;
  on_access(current, addr, size, access_kind::read, label);
}

template <typename R>
void sp_detector<R>::on_write(proc_id current, const void* addr,
                              std::size_t size, const char* label) {
  ++stats_.writes_checked;
  on_access(current, addr, size, access_kind::write, label);
}

template <typename R>
void sp_detector<R>::lock_acquired(proc_id current, lock_id id) {
  CILKPP_ASSERT(!lockset_contains(held_, id),
                "lock acquired twice (not recursive)");
  if (lint_ != nullptr) {
    const strand cur = rel_.strand_of(current);
    lint_->on_acquire(
        cur, current, id,
        [this, cur](const strand& s) { return rel_.parallel(cur, s); },
        [](const strand& earlier, const strand& later) {
          return R::pair_parallel(earlier, later);
        });
  }
  held_.push_back(id);
}

template <typename R>
void sp_detector<R>::lock_released(proc_id current, lock_id id) {
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i] == id) {
      held_.swap_remove(i);
      if (lint_ != nullptr) lint_->on_release(current, id);
      return;
    }
  }
  // A release with no matching acquisition (double unlock, unlock of a
  // never-locked mutex). The lockset is already consistent — there is
  // nothing to remove — so record the fact and keep going.
  ++stats_.unmatched_releases;
  if (lint_ != nullptr) lint_->on_unmatched_release(current, id);
}

template <typename R>
typename sp_detector<R>::hyper_state* sp_detector<R>::find_hyper(
    const rt::hyperobject_base& h) {
  for (hyper_state& hs : hypers_) {
    if (hs.id == &h) return &hs;
  }
  return nullptr;
}

template <typename R>
void sp_detector<R>::register_hyperobject(const rt::hyperobject_base& h,
                                          const void* base, std::size_t size,
                                          const char* label) {
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  // The hyperobject's value bytes are a runtime-owned region: co-residency
  // with a neighboring structure is a padding lint (memlens/analyzer.hpp).
  if (lens_ != nullptr) {
    lens_->on_region(base, size, label != nullptr ? label : "reducer view");
  }
  if (hyper_state* hs = find_hyper(h)) {
    hs->lo = lo;
    hs->hi = lo + size;
    if (hs->label == nullptr) hs->label = label;  // first label wins
    return;
  }
  hypers_.push_back({&h, lo, lo + size, label, {}});
}

template <typename R>
void sp_detector<R>::on_view_access(proc_id current,
                                    const rt::hyperobject_base& h,
                                    const void* base, std::size_t size,
                                    access_kind kind, const char* label) {
  const strand cur = rel_.strand_of(current);
  register_hyperobject(h, base, size, label);
  hyper_state& hs = *find_hyper(h);
  ++stats_.view_accesses;
  const auto parallel = [this, cur](const strand& s) {
    return rel_.parallel(cur, s);
  };
  // A remembered raw access logically parallel with this view access is a
  // view race (the raw strand bypassed the reducer).
  for (std::uintptr_t byte = hs.lo; byte < hs.hi; ++byte) {
    if (shadow_cell* c = shadow_.find(byte)) {
      for (const entry& e : c->hist.entries()) {
        const bool write_involved =
            e.kind == access_kind::write || kind == access_kind::write;
        if (write_involved && parallel(e.strand)) {
          report(race_kind::view, hs.lo, e, current, kind, hs.label);
        }
      }
    }
  }
  // View-vs-view accesses are exempt — that is the reducer guarantee — so
  // the history's race callback is a no-op; the entries exist only for the
  // raw-vs-view check above and its mirror in on_access. Views are recorded
  // with an empty lockset: a lock never protects against a view race.
  hs.views.access(cur, current, rank_of(current), kind, lockset{}, hs.label,
                  parallel, [](const entry&) {}, stats_);
}

template <typename R>
void sp_detector<R>::on_view_fetch(proc_id current,
                                   const rt::hyperobject_base& h,
                                   const void* base, std::size_t size,
                                   const char* label) {
  register_hyperobject(h, base, size, label);
  if (lint_ == nullptr) return;
  lint_->on_view_fetch(&h, rel_.strand_of(current), current,
                       reinterpret_cast<std::uintptr_t>(base), label);
}

template <typename R>
const std::vector<race_record>& sp_detector<R>::races() const {
  if (!races_sorted_) {
    std::sort(races_.begin(), races_.end(), race_report_order);
    races_sorted_ = true;
  }
  return races_;
}

template <typename R>
std::vector<std::uint64_t> sp_detector<R>::history_histogram() const {
  std::vector<std::uint64_t> histogram;
  shadow_.for_each([&](std::uintptr_t, const shadow_cell& c) {
    const std::size_t n = c.hist.entries().size();
    if (histogram.size() <= n) histogram.resize(n + 1);
    ++histogram[n];
  });
  return histogram;
}

template class sp_detector<sp_bags_relation>;
template class sp_detector<sp_order_relation>;

}  // namespace cilkpp::screen
