// Process-wide heap allocation counter for the ledger binary.
//
// alloc_counter.cc replaces the global operator new/delete family for this
// executable only; every allocation bumps two relaxed atomics (the sharded
// workload allocates from two threads). Reads are snapshots: subtract two of
// them to count the allocations made by the code in between.
#ifndef PALETTE_BENCH_LEDGER_ALLOC_COUNTER_H_
#define PALETTE_BENCH_LEDGER_ALLOC_COUNTER_H_

#include <cstdint>

namespace ledger {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& earlier) const {
    return {allocs - earlier.allocs, bytes - earlier.bytes};
  }
};

AllocCount CurrentAllocs();

}  // namespace ledger

#endif  // PALETTE_BENCH_LEDGER_ALLOC_COUNTER_H_
