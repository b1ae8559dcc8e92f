/**
 * @file
 * Fault-isolated process pool for batch simulation.
 *
 * parallelFor (parallel_for.hh) spreads a sweep across threads, which is
 * fast but shares one address space: a segfault, a runaway allocation,
 * or a hang in any single run takes down the whole batch. ProcPool
 * keeps the same contract — tasks are independent, results land in
 * pre-assigned slots, nothing about scheduling leaks into the output —
 * but runs every task in a forked worker process that writes its result
 * back as one length-prefixed, CRC-checked pipe frame
 * (common/subprocess.hh). Parent and worker are the same forked binary,
 * so there is no other protocol to negotiate.
 *
 * Recovery policy, per task:
 *  - a worker that exits nonzero, dies on a signal, or returns a
 *    truncated/corrupt frame is retried with exponential backoff;
 *  - a worker that exceeds the per-run timeout is SIGKILLed and retried;
 *  - after maxAttempts failures the task is reported as a failed
 *    ProcResult (the caller records a machine-readable skip row) and
 *    the batch continues.
 *
 * Fault injection: Config::faults (see subprocess.hh; the harness reads
 * it from PUBS_FAULT) makes workers crash, hang, or corrupt their frames
 * with a seeded per-(task, attempt) coin, so tests and CI can exercise
 * every recovery path deterministically.
 */

#ifndef PUBS_SIM_PROC_POOL_HH
#define PUBS_SIM_PROC_POOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/subprocess.hh"

namespace pubs::sim
{

/** Outcome of one task after all attempts (slot-indexed). */
struct ProcResult
{
    std::string payload;  ///< the worker's frame payload when ok
    bool ok = false;
    std::string error;    ///< last failure description when !ok
    unsigned attempts = 0;
};

/**
 * Host-side counters of one batch: wall and busy time, and how hard the
 * recovery machinery worked. Never part of deterministic output.
 */
struct FarmStats
{
    uint64_t launches = 0;
    uint64_t crashes = 0;       ///< workers that exited abnormally
    uint64_t timeouts = 0;      ///< workers SIGKILLed past the deadline
    uint64_t corruptFrames = 0; ///< frames rejected by CRC/framing
    uint64_t retries = 0;
    uint64_t permanentFailures = 0; ///< tasks skipped after maxAttempts
    uint64_t journalServed = 0; ///< slots replayed from a --resume journal
    double busySeconds = 0.0;   ///< summed per-task wall time
    double wallSeconds = 0.0;

    /** Add @p other's counters and times to these. */
    FarmStats &operator+=(const FarmStats &other);
};

class ProcPool
{
  public:
    struct Config
    {
        unsigned procs = 0;         ///< worker processes; 0 = hw threads
        unsigned maxAttempts = 5;   ///< per task, including the first
        double timeoutSeconds = 900.0; ///< per attempt; <=0 disables
        unsigned backoffBaseMs = 100;  ///< retry delay: base << (attempt-1)
        bool verbose = false;       ///< report failures/retries on stderr
        proc::FaultPlan faults;     ///< injected faults; none by default
    };

    explicit ProcPool(Config config);

    unsigned procs() const { return procs_; }

    /**
     * Runs in the forked worker: produce the result payload for task
     * @p index (attempt numbers start at 1). Throwing SimError out of
     * the function marks the attempt failed (exit 3) and retries —
     * encode expected failures into the payload instead.
     */
    using ChildFn = std::function<std::string(size_t index,
                                              unsigned attempt)>;

    /**
     * Called in the parent as each task reaches its final outcome
     * (success or failure-beyond-retry), in completion order. This is
     * the write-ahead hook: journal the result here and a later kill
     * cannot lose it.
     */
    using ResultHook = std::function<void(size_t index,
                                          const ProcResult &result)>;

    /**
     * Run fn(0..n-1) across the worker processes; blocks until every
     * task has succeeded or permanently failed. Results are
     * slot-indexed, independent of scheduling.
     */
    std::vector<ProcResult> run(size_t n, const ChildFn &fn,
                                const ResultHook &onResult = {});

    /** Counters of the most recent run(). */
    const FarmStats &stats() const { return stats_; }

  private:
    Config config_;
    unsigned procs_;
    FarmStats stats_;
};

} // namespace pubs::sim

#endif // PUBS_SIM_PROC_POOL_HH
