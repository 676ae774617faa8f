// cilk_for on the work-stealing runtime. The lowering is the one every
// engine shares (runtime/lowering.hpp), body(i) leaves included: each is an
// ordinary spawned closure. rt::context supplies only the default grain
// default_grain(n, P).
#pragma once

#include "runtime/lowering.hpp"
#include "runtime/scheduler.hpp"

namespace cilk {
using cilkpp::rt::default_grain;
using cilkpp::rt::parallel_for;
}  // namespace cilk
