#ifndef DJ_BENCH_E2E_ALLOC_COUNTER_H_
#define DJ_BENCH_E2E_ALLOC_COUNTER_H_

#include <cstdint>

namespace dj::bench::alloc {

/// Counting global operator new for bench_e2e. The replacement lives in
/// alloc_counter.cc and is linked into the bench binary only. While
/// disarmed, each allocation pays one relaxed atomic load; while armed,
/// each thread bumps its own slot, and a thread's count folds into a
/// process-wide total when the thread exits.
void Arm();

/// Allocations counted since Arm(), over live and exited threads. Exact
/// when no other thread is allocating, as at the phase boundaries of a pass.
uint64_t Count();

}  // namespace dj::bench::alloc

#endif  // DJ_BENCH_E2E_ALLOC_COUNTER_H_
