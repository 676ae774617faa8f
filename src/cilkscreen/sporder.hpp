// The SP-order race-detection engine (Bender, Fineman, Gilbert & Leiserson,
// SPAA'04 — the paper's ref [2] for "on-the-fly maintenance of
// series-parallel relationships").
//
// Two order-maintenance lists are kept over *strands*:
//   English order E — the serial execution order (spawned child's subtree
//                     before the continuation);
//   Hebrew  order H — the mirror order (continuation strands before the
//                     spawned children's subtrees, children reversed).
// Strand x precedes strand y iff x comes before y in BOTH orders; since
// execution is serial (every remembered access is E-before the current
// strand), x runs logically in parallel with the current strand iff x is
// H-AFTER it — one label comparison per check, O(1).
//
// Insertion discipline (derived in comments below; validated against both
// SP-bags and dag-reachability ground truth by the property tests):
//  * first spawn of a sync block pre-creates the block's post-sync strand
//    node j in H, immediately after the current strand;
//  * each spawned child's H node is inserted immediately BEFORE the
//    previous child's (or before j for the first child), giving the
//    reversed-children Hebrew order  s0, s1, …, sk, ck, …, c1, j;
//  * continuations extend E and H right after the current strand;
//  * sync adopts j as the frame's current H node.
//
// This file supplies only the relation; shadow memory, ALL-SETS histories,
// reducer awareness and reports are sp_detector's (detector.hpp), shared
// with SP-bags.
#pragma once

#include <cstdint>
#include <vector>

#include "cilkscreen/order_maintenance.hpp"
#include "cilkscreen/race_types.hpp"
#include "support/assert.hpp"

namespace cilkpp::screen {

/// SP-order as the series-parallel relation of sp_detector. A strand is
/// named by its Hebrew-order node, which answers both queries exactly:
/// remembered strand s runs in parallel with the current strand iff the
/// current strand H-precedes s, and two remembered strands (earlier, later)
/// are parallel iff later H-precedes earlier.
class sp_order_relation {
 public:
  using strand = om_list::node*;

  sp_order_relation();

  proc_id enter_spawn(proc_id parent);
  void exit_spawn(proc_id, proc_id) {}  // the child's strands stay in place
  proc_id enter_call(proc_id parent);
  void exit_call(proc_id parent, proc_id child);
  void sync(proc_id f);

  strand strand_of(proc_id p) const {
    CILKPP_ASSERT(p < frames_.size(), "unknown frame");
    return frames_[p].cur_h;
  }
  static bool parallel(strand current, strand remembered) {
    return om_list::precedes(current, remembered);
  }
  static bool pair_parallel(strand earlier, strand later) {
    return om_list::precedes(later, earlier);
  }

  std::uint64_t relabel_count() const {
    return english_.relabel_count() + hebrew_.relabel_count();
  }

 private:
  struct frame {
    om_list::node* cur_e = nullptr;
    om_list::node* cur_h = nullptr;
    om_list::node* block_join = nullptr;   // pre-created post-sync H node
    om_list::node* last_child_h = nullptr; // H insertion barrier for children
  };

  om_list english_;
  om_list hebrew_;
  std::vector<frame> frames_;
};

}  // namespace cilkpp::screen
