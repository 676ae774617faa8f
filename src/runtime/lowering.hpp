// cilk_for (paper Sec. 1, Sec. 2): "a cilk_for can be viewed as
// divide-and-conquer parallel recursion using cilk_spawn and cilk_sync over
// the iteration space."
//
// The one parallel_for lowering, shared by every engine (the runtime, the
// serial elision, both cilkscreen engines, cilkview, the dag recorder and
// pedigree replay): because they all run this code, they all see the same
// frames, spawns, syncs and pedigree ranks for the same loop. The header
// depends on no engine; it drives any context with spawn / sync / call.
//
// Every engine spawns a body(i) leaf the same way: as an ordinary spawned
// closure looping body(i), so a leaf is a frame like any other (its trace
// brackets, census, pedigree and exception delivery are the spawn path's).
// What differs between engines is a compile-time property of the context
// type, each read here with a default:
//   Ctx::pfor_split_units         work charged to the continuation per
//                                 split (the recorder and cilkview);
//                                 otherwise none.
//   ctx.pfor_default_grain(n)     the grain when the caller passes 0
//                                 (the runtime and the P = 1 engines);
//                                 otherwise 1.
#pragma once

#include <cstdint>
#include <type_traits>

namespace cilkpp::rt {

/// Cilk++'s rule of thumb min(2048, N / (8P)): small enough for 8P-fold
/// load-balancing slack, large enough to amortize spawn overhead.
inline std::uint64_t default_grain(std::uint64_t iterations, unsigned workers) {
  const std::uint64_t slack = iterations / (8ULL * workers);
  const std::uint64_t grain = slack < 2048 ? slack : 2048;
  return grain == 0 ? 1 : grain;
}

/// Grains per burst frame for the body(i) lowering: once a subrange is down
/// to this many grains, the hosting frame stops halving and fans its grains
/// out directly as leaf strands. Internal frames drop from ~n/(2·grain) to
/// ~n/(burst·grain) while the leaf count — and the spawn count the dag
/// shape fixes at (#grains − 1) — is unchanged.
inline constexpr std::uint64_t pfor_burst_grains = 32;

namespace detail {

template <typename Ctx>
void charge_split(Ctx& ctx) {
  if constexpr (requires { Ctx::pfor_split_units; }) {
    ctx.account(Ctx::pfor_split_units);  // on the continuation strand
  }
}

template <typename Ctx, typename Index, typename Body>
void parallel_for_impl(Ctx& ctx, Index lo, Index hi, const Body& body,
                       std::uint64_t grain) {
  // body(ctx, i) halves down to one grain. body(i) leaves cannot spawn or
  // touch reducers, so the bottom of the recursion needs no frames: halve
  // while more than pfor_burst_grains grains remain, then burst the rest
  // out as leaf strands and run the last one inline on this frame's strand.
  constexpr bool leaf_ctx = std::is_invocable_v<const Body&, Ctx&, Index>;
  std::uint64_t burst = grain;
  if constexpr (!leaf_ctx) {
    burst = grain > ~std::uint64_t{0} / pfor_burst_grains
                ? ~std::uint64_t{0}
                : pfor_burst_grains * grain;
  }
  // Spawn left halves; keep the right half in this frame (lazy splitting
  // — one frame hosts the whole spine, the dag is the binary recursion).
  while (static_cast<std::uint64_t>(hi - lo) > burst) {
    Index mid = lo + (hi - lo) / 2;
    ctx.spawn([lo, mid, &body, grain](Ctx& child) {
      parallel_for_impl(child, lo, mid, body, grain);
    });
    charge_split(ctx);
    lo = mid;
  }
  if constexpr (leaf_ctx) {
    for (Index i = lo; i < hi; ++i) {
      body(ctx, i);  // leaf-frame context: required for reducer access
    }
  } else {
    while (static_cast<std::uint64_t>(hi - lo) > grain) {
      Index mid = lo + static_cast<decltype(hi - lo)>(grain);
      ctx.spawn([lo, mid, &body](Ctx&) {
        for (Index i = lo; i < mid; ++i) body(i);
      });
      charge_split(ctx);
      lo = mid;
    }
    for (Index i = lo; i < hi; ++i) body(i);
  }
  ctx.sync();
}

}  // namespace detail

/// Runs the body for every i in [begin, end), iterations logically in
/// parallel. grain == 0 selects the engine's default (see above).
///
/// Two body shapes are accepted:
///   body(i)            — pure element-wise work;
///   body(leaf_ctx, i)  — REQUIRED when the body accesses reducers or
///                        spawns: views must be fetched through the frame
///                        actually executing the iteration. Fetching through
///                        an outer frame's context from inside the loop
///                        would share one view across concurrent strands.
template <typename Ctx, typename Index, typename Body>
  requires requires(Ctx& ctx) { ctx.sync(); }
void parallel_for(Ctx& ctx, Index begin, Index end, const Body& body,
                  std::uint64_t grain = 0) {
  if (begin >= end) return;
  const auto n = static_cast<std::uint64_t>(end - begin);
  if (grain == 0) {
    if constexpr (requires { ctx.pfor_default_grain(n); }) {
      grain = ctx.pfor_default_grain(n);
    } else {
      grain = 1;
    }
  }
  if constexpr (!std::is_invocable_v<const Body&, Ctx&, Index>) {
    if (n <= grain) {
      // The whole range fits one grain and a body(i) cannot spawn, so the
      // loop needs neither a scoping frame nor a sync — run it inline on
      // the caller's strand, exactly as the elision would. The body(ctx, i)
      // form never takes this path: it may spawn, and those spawns must
      // attach to a loop frame whose implicit sync awaits them rather than
      // escaping into the caller's frame.
      for (Index i = begin; i < end; ++i) body(i);
      return;
    }
  }
  // A dedicated frame scopes the implicit sync, exactly as the compiler
  // would generate for the loop.
  ctx.call([&](Ctx& loop_frame) {
    detail::parallel_for_impl(loop_frame, begin, end, body, grain);
  });
}

}  // namespace cilkpp::rt
