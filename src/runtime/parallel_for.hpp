// cilk_for on the work-stealing runtime. The lowering is the one every
// engine shares (runtime/lowering.hpp); rt::context supplies its body(i)
// leaf spawn (spawn_leaf) and the default grain default_grain(n, P).
#pragma once

#include "runtime/lowering.hpp"
#include "runtime/scheduler.hpp"

namespace cilk {
using cilkpp::rt::default_grain;
using cilkpp::rt::parallel_for;
}  // namespace cilk
