// The spawn-pair ledger and the other per-layer microbenchmarks, each
// timed from outside a module through its public functions: an empty
// spawn+sync pair and its measured parts (Chase–Lev push+pop, a slab
// allocate+free at the spawn-task size, a pedigree mix), an empty
// scheduler::run on a parked pool, an empty grain-1 parallel_for, and the
// reducer update and fold costs. Every figure is the median of batches.
#pragma once

#include "perfbench.hpp"

namespace perfbench {

void measure_ledger(unsigned nproc, metric_sink& m);

}  // namespace perfbench
