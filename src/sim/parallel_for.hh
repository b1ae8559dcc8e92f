/**
 * @file
 * Thread-level parallelism for batch simulation.
 *
 * Every paper figure is a batch of independent (workload, machine)
 * runs, each a 0.1-1 s simulation that owns its pipeline, emulator,
 * RNG streams and stats. At that grain a single shared atomic index
 * balances a heterogeneous batch as well as any scheduler can: each
 * thread takes the next unclaimed index until none is left.
 *
 * Determinism is the caller's job: the order in which indices run is
 * unspecified, so results must be written into pre-assigned slots
 * (see bench_util's runSweep), never appended in completion order.
 */

#ifndef PUBS_SIM_PARALLEL_FOR_HH
#define PUBS_SIM_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace pubs::sim
{

/** std::thread::hardware_concurrency(), never less than 1. */
unsigned hardwareThreads();

/**
 * Run fn(0) .. fn(n-1) on @p threads threads (0 = hardwareThreads();
 * the calling thread is one of them) and return once all have joined.
 * The first exception fn throws stops further indices from starting
 * and is rethrown here after every thread has joined.
 */
void parallelFor(unsigned threads, size_t n,
                 const std::function<void(size_t)> &fn);

} // namespace pubs::sim

#endif // PUBS_SIM_PARALLEL_FOR_HH
