// cilk::trace event schema (see src/trace/README.md).
//
// The runtime records one fixed-size event at every parallel-control point:
// frame begin/end, spawn, sync begin/end, and successful steal. Events are
// written to per-worker SPSC rings (ring.hpp) on the hot path and assembled
// into a timeline (timeline.hpp) after the run.
//
// A frame is identified by its *pedigree hash* (context::ped_hash_): a
// 64-bit value the runtime already computes deterministically per frame, so
// tracing adds no identity state to the scheduler. Collisions are
// astronomically unlikely (birthday bound on 2^64) and merely degrade one
// timeline, never the traced program.
#pragma once

#include <cstdint>

// Retired build switch, always 1: perfbench reads it.
#define CILKPP_TRACE_ENABLED 1

namespace cilkpp::trace {

enum class event_kind : std::uint8_t {
  frame_begin = 0,  ///< frame = new frame, aux64 = parent frame, aux32 = depth, aux16 = frame_kind
  frame_end = 1,    ///< frame = ending frame
  spawn = 2,        ///< frame = spawner, aux64 = child frame, aux32 = spawn rank
  sync_begin = 3,   ///< frame = syncing frame, aux32 = rank, aux16 = 1 if implicit
  sync_end = 4,     ///< frame = syncing frame, aux32 = rank, aux16 = 1 if implicit
  steal = 5,        ///< frame = stolen child frame, aux64 = its parent, aux16 = victim worker
};

/// What kind of frame a frame_begin opens (mirrors rt::context::kind).
enum class frame_kind : std::uint8_t { root = 0, spawned = 1, called = 2 };

/// One trace record: 40 bytes, trivially copyable, written by exactly one
/// worker (the one named in `worker`).
struct event {
  std::uint64_t time_ns = 0;  ///< cilkpp::now_ns() at the record site
  std::uint64_t frame = 0;    ///< pedigree hash of the frame the event belongs to
  std::uint64_t aux64 = 0;
  std::uint32_t aux32 = 0;
  std::uint16_t aux16 = 0;
  event_kind kind = event_kind::frame_begin;
  /// Id of the recording worker. 16 bits matches the width of the steal
  /// event's victim field (aux16); scheduler::install_trace asserts the
  /// worker count fits.
  std::uint16_t worker = 0;
};

static_assert(sizeof(event) == 40, "event is sized for ring arithmetic");

}  // namespace cilkpp::trace
