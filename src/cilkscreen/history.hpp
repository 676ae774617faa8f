// ALL-SETS access histories (Cheng, Feng, Leiserson, Randall & Stark,
// "Detecting data races in Cilk programs that use locks", SPAA'98) — the
// algorithm behind the paper's claim that Cilkscreen "guarantees to report a
// race bug if the race bug is exposed" even when the program uses locks.
//
// A single last-reader/last-writer shadow cell loses that guarantee: when
// the same location is touched under *different* locksets, whichever access
// the cell forgot may be the one a later access races with. ALL-SETS instead
// remembers, per location, one access per distinct (lockset, kind) that is
// not subsumed by another. An access by strand e with lockset H:
//
//   1. races with a remembered access <e', H', k'> iff e' ∥ e, H' ∩ H = ∅,
//      and at least one of k, k' is a write;
//   2. evicts every remembered <e', H', k'> with e' ≺ e and H ⊆ H' whose
//      kind it subsumes (k = write, or k' = read): any future access racing
//      with e' would also race with e — e' ≺ e makes e' ∥ f imply e ∥ f,
//      and H ⊆ H' makes H' ∩ H_f = ∅ imply H ∩ H_f = ∅;
//   3. is itself redundant if some remembered <e', H', k'> with e' ∥ e and
//      H' ⊆ H covers its kind (k' = write, or k = read): by the
//      pseudotransitivity of SP orders, a future f ∥ e with e' ∥ e and
//      e' before e in serial order is also ∥ e'.
//
// The history is bounded at history_capacity entries; a non-redundant access
// arriving at a full history is dropped and counted in
// detector_stats::history_spills (the explicit spill policy: soundness is
// preserved — no false positives — while completeness degrades only for
// locations touched under more than history_capacity distinct locksets).
//
// Sid is the SP relation's strand identity (proc_id for SP-bags, an
// order-maintenance node for SP-order); the parallelism test is passed in
// as a predicate over it.
#pragma once

#include <cstdint>
#include <vector>

#include "cilkscreen/race_types.hpp"

namespace cilkpp::screen {

/// Bound on remembered accesses per shadow location. With L distinct locks
/// the maintenance rules keep at most one entry per (lockset, kind), i.e.
/// 2·2^L; 32 therefore never spills for programs using ≤ 4 locks per
/// location.
inline constexpr std::size_t history_capacity = 32;

template <typename Sid>
struct history_entry {
  Sid strand{};                  ///< engine-specific strand identity
  proc_id proc = invalid_proc;   ///< procedure, for provenance and reports
  /// proc's pedigree rank at the access — captured at event time because
  /// the procedure's rank advances with later spawns/syncs; together with
  /// proc it names the accessing strand schedule-independently.
  std::uint64_t ped_rank = 0;
  lockset locks;
  access_kind kind = access_kind::read;
  const char* label = nullptr;   ///< user label at the access site, if any
};

template <typename Sid>
class access_history {
 public:
  /// Processes one access: reports races against the remembered accesses,
  /// then performs ALL-SETS maintenance.
  ///   parallel(strand) — is the remembered strand logically parallel with
  ///                      the currently executing one?
  ///   report(entry)   — called for each remembered access that races with
  ///                     this one (parallel, disjoint locksets, ≥1 write).
  template <typename Parallel, typename Report>
  void access(Sid strand, proc_id proc, std::uint64_t ped_rank,
              access_kind kind, const lockset& held, const char* label,
              const Parallel& parallel, const Report& report,
              detector_stats& stats) {
    bool redundant = false;
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      history_entry<Sid>& e = entries_[i];
      const bool par = parallel(e.strand);
      const bool write_involved =
          e.kind == access_kind::write || kind == access_kind::write;
      if (par && write_involved) {
        if (lockset_disjoint(e.locks, held)) {
          report(e);
        } else {
          ++stats.races_lock_suppressed;
        }
      }
      // Rule 2: the new access evicts serial entries it subsumes. (In a
      // serial execution every remembered strand either precedes the
      // current one or is parallel with it, so !par means e ≺ current.)
      const bool new_covers_old =
          kind == access_kind::write || e.kind == access_kind::read;
      if (!par && new_covers_old && lockset_subset(held, e.locks)) {
        continue;  // evict e
      }
      // Rule 3: an already-parallel entry with a smaller lockset and a
      // covering kind makes remembering the new access pointless.
      const bool old_covers_new =
          e.kind == access_kind::write || kind == access_kind::read;
      if (par && old_covers_new && lockset_subset(e.locks, held)) {
        redundant = true;
      }
      if (out != i) entries_[out] = std::move(entries_[i]);
      ++out;
    }
    entries_.resize(out);
    if (redundant) return;
    if (entries_.size() >= history_capacity) {
      ++stats.history_spills;
      return;
    }
    entries_.push_back({strand, proc, ped_rank, held, kind, label});
  }

  /// Read-only scan of the remembered accesses (raw-vs-view checks, bench
  /// histograms).
  const std::vector<history_entry<Sid>>& entries() const { return entries_; }

 private:
  std::vector<history_entry<Sid>> entries_;
};

}  // namespace cilkpp::screen
