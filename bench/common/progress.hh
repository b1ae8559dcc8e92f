/**
 * @file
 * The live progress readout of a driver's sweeps (--progress).
 *
 * One meter spans a driver: each sweep adds its runs to the total as it
 * starts, and runSweep's result hook reports each run as it finishes,
 * on threads and under --procs alike. The meter renders those counts:
 * one carriage-return-redrawn line when stderr is a terminal, one
 * machine-readable line per 10% of finished runs otherwise, and an
 * atomically rewritten, strict-JSON progress.json. Nothing reports from
 * inside a running simulation, so the meter reads no simulated state
 * and cannot change any simulated output.
 */

#ifndef PUBS_BENCH_COMMON_PROGRESS_HH
#define PUBS_BENCH_COMMON_PROGRESS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace pubs::bench
{

/**
 * Counts a driver's finished runs. Not thread-safe: runSweep calls it
 * under its result hook's lock, and its sweeps run one at a time.
 *
 * TTY line, redrawn at most every 100 ms:
 *     [12/36] 33%  2841 KIPS  failed 1  retries 1
 * Non-TTY line, one per 10% step below 100%, and one at finish() (the
 * only one that may count every run, as a later sweep may add more):
 *     progress: done=12/36 pct=33 kips=2841 failed=0 retries=0 timeouts=0
 * When a sweep adds runs the share done drops, and the 10% steps go on
 * from there. KIPS is the finished runs' measured instructions per
 * wall-clock second since the meter started.
 */
class ProgressMeter
{
  public:
    /**
     * @p jsonPath, when not empty, receives progress.json (at most
     * every 200 ms, and on addRuns() and finish()).
     */
    explicit ProgressMeter(std::string jsonPath);
    ~ProgressMeter();
    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /** A sweep of @p runs more runs starts. */
    void addRuns(size_t runs);

    /** A run reached its final outcome after @p instructions. */
    void runFinished(bool ok, uint64_t instructions);

    /** The current sweep's --procs pool retries and timeouts so far. */
    void setFarmTotals(uint64_t retries, uint64_t timeouts);

    /** Final line and progress.json; idempotent. */
    void finish();

    /** The current progress document (what progress.json holds). */
    std::string json() const;

    /** The TTY line, without its \r decoration. */
    std::string line() const;

  private:
    unsigned pct() const;
    double elapsed() const;            ///< seconds since construction
    double kips(double seconds) const; ///< instructions_ over seconds
    void draw(bool force);
    void writeJson(bool force);

    size_t total_ = 0;
    std::string jsonPath_;
    bool tty_;
    bool finished_ = false;
    size_t done_ = 0;
    size_t failed_ = 0;
    uint64_t instructions_ = 0;
    uint64_t retries_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t priorRetries_ = 0;  ///< of the sweeps before this one
    uint64_t priorTimeouts_ = 0;
    uint64_t startNs_;
    uint64_t lastDrawNs_ = 0;
    uint64_t lastJsonNs_ = 0;
    unsigned loggedPct_ = 0;       ///< the 10% step last reached
    size_t loggedDone_ = SIZE_MAX; ///< done_ when that line was written
    bool drewLine_ = false;        ///< a \r line is on screen
};

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_PROGRESS_HH
