/**
 * @file
 * Live progress plane for long runs and sweep farms.
 *
 * Three pieces:
 *
 *  1. A compact PROGRESS sample codec: (slot, instructions retired,
 *     total budget, KIPS, RSS, label) packed little-endian by
 *     common/serialize.hh behind a magic+version header. ProcPool
 *     workers ship these over the
 *     existing CRC-checked pipe frames (typed 'P', interleaved with the
 *     final 'R' result frame), so corruption detection rides the frame
 *     CRC for free.
 *
 *  2. A worker-side reporter: the simulation hot loop calls tick()
 *     (one relaxed atomic load when disabled), and a configured sink —
 *     a pipe fd in forked workers, a callback in thread pools — gets a
 *     rate-limited stream of samples. Task identity (slot, label,
 *     budget) is thread-local, so pool threads report concurrently
 *     without sharing state.
 *
 *  3. A broker-side Meter: aggregates samples from all workers into a
 *     single-line TTY progress readout (carriage-return redraw), a
 *     machine-readable one-line-per-N% fallback on non-TTYs, and an
 *     atomically-rewritten RFC 8259-strict progress.json.
 *
 * Determinism: the progress plane only *observes* (instruction counts,
 * wall clock, RSS) and writes to stderr/fds/progress.json; it never
 * feeds anything back into simulation, so enabling it cannot change
 * any simulation output — the fig8/stats/lockstep byte-exactness
 * contract holds with progress on or off.
 */

#ifndef PUBS_COMMON_PROGRESS_HH
#define PUBS_COMMON_PROGRESS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

namespace pubs::progress
{

// --- sample codec ----------------------------------------------------

/** One progress heartbeat from a worker. */
struct Sample
{
    uint64_t slot = 0;       ///< sweep slot (spec index) being run
    uint64_t insts = 0;      ///< instructions retired so far (all phases)
    uint64_t totalInsts = 0; ///< budget (warmup + measure); 0 = unknown
    double kips = 0.0;       ///< host speed since the task began
    uint64_t rssBytes = 0;   ///< resident set size; 0 = unavailable
    std::string label;       ///< workload / task name
};

/** Serialize @p sample (magic "PBPG" + version + fields + label). */
std::string encodeSample(const Sample &sample);

/**
 * Decode @p payload into @p sample.
 * @return false on bad magic, unknown version, or a short/overlong
 * payload.
 */
bool decodeSample(const std::string &payload, Sample &sample);

/** Resident set size of this process in bytes (0 if unavailable). */
uint64_t currentRssBytes();

// --- worker-side reporter --------------------------------------------

/** Is any sink installed? (one relaxed load; the tick fast path) */
bool enabled();

extern std::atomic<bool> sinkInstalled_;

/**
 * Report progress from the simulation loop: @p instsDone instructions
 * retired in the current phase. No-op unless a sink is installed and a
 * task was begun on this thread; rate-limited per thread by the sink's
 * interval. Cheap enough to call every pipeline iteration.
 */
inline void
tick(uint64_t instsDone)
{
    extern void tickSlow(uint64_t instsDone);
    if (sinkInstalled_.load(std::memory_order_relaxed))
        tickSlow(instsDone);
}

/**
 * Declare the task the calling thread is about to run. @p totalInsts
 * is the full budget (warmup + measure) for percent math.
 */
void beginTask(uint64_t slot, const std::string &label,
               uint64_t totalInsts);

/**
 * A new phase (e.g. warmup -> measure) began: instruction counts passed
 * to tick() restart from zero, and completed-phase instructions are
 * folded into the task's running total.
 */
void phaseDone();

/** Emit a final (non-rate-limited) sample and clear the task. */
void endTask();

/**
 * Install a pipe sink: samples are written to @p fd as typed 'P'
 * frames (proc::encodeFrame("P" + encodeSample(...))), at most one per
 * @p intervalMs per thread. Used by forked sweep workers.
 */
void setFrameSink(int fd, unsigned intervalMs);

/**
 * Install a callback sink (thread-pool / in-process runs). @p fn is
 * called from worker threads and must be thread-safe.
 */
void setCallbackSink(std::function<void(const Sample &)> fn,
                     unsigned intervalMs);

/** Remove the sink; tick() returns to the disabled fast path. */
void clearSink();

// --- broker-side meter -----------------------------------------------

/**
 * Aggregates worker samples into a live readout plus progress.json.
 * Thread-safe: update() may be called from pool threads or the broker
 * poll loop.
 *
 * TTY output (stderr is a terminal): one carriage-return-redrawn line
 *     [ 12/36] 33%  4 active  2841 KIPS  mcf_like 41%  retries 1
 * Non-TTY: one machine-readable line per `nonTtyStepPct` of overall
 * completed-run progress:
 *     progress: done=12/36 pct=33 active=4 kips=2841 retries=1 skips=0
 *
 * progress.json (when a path is configured) is rewritten atomically at
 * most every jsonIntervalMs and always on finish(): strict JSON with
 * totals, per-active-slot detail, and farm-health counters.
 */
class Meter
{
  public:
    struct Config
    {
        size_t totalRuns = 0;
        std::string jsonPath;      ///< empty = no progress.json
        FILE *out = nullptr;       ///< nullptr = stderr
        unsigned jsonIntervalMs = 200;
        unsigned drawIntervalMs = 100;
        unsigned nonTtyStepPct = 10;
        bool forceTty = false;     ///< tests: render as if a TTY
        bool quiet = false;        ///< suppress terminal output entirely
    };

    explicit Meter(Config config);
    ~Meter();

    /** A worker heartbeat arrived. */
    void update(const Sample &sample);

    /** A run reached a final outcome (ok or skipped after retries). */
    void runFinished(uint64_t slot, bool ok);

    /**
     * Mirror the pool's farm-health counters (absolute values, read from
     * FarmStats mid-run) into the readout and progress.json.
     */
    void setFarmTotals(uint64_t retries, uint64_t timeouts,
                       uint64_t staleKills);

    /** Final redraw + progress.json flush; idempotent. */
    void finish();

    /** The current progress document (what progress.json holds). */
    std::string json() const;

    /** One rendered status line (without \r/\n decoration). */
    std::string line() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace pubs::progress

#endif // PUBS_COMMON_PROGRESS_HH
