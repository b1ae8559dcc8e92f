/**
 * @file
 * Hierarchical host-phase profiler: where does the simulator spend
 * *host* time?
 *
 * Usage: pubs::prof::Scope s("sweep/launch"); — an RAII timer that is a
 * few nanoseconds of no-op when profiling is disabled (one relaxed
 * atomic load), and records a nested phase span when enabled. Phases
 * nest by scope: a Scope opened while another is live becomes its
 * child, and aggregation reports count / total / self (total minus
 * children) / max per phase path, merged across threads.
 *
 * Two outputs:
 *  - fillRegistry(): per-path aggregates into a StatRegistry "profile"
 *    group, so the numbers ride along in every stats JSON export;
 *  - traceEventsJson(): Chrome trace-event JSON ("traceEvents" array of
 *    complete "X" events, microsecond timestamps) loadable in Perfetto
 *    or chrome://tracing.
 *
 * Hot-path discipline: per-thread state only (a registry of thread
 * logs, each with its own mutex taken uncontended by its owner), no
 * allocation on the Scope fast path after a phase is first seen, and a
 * bounded trace buffer per thread (drops are counted, never block).
 * The pipeline samples its per-cycle stage scopes every
 * sampleInterval() cycles so the measured overhead stays under the
 * documented 3% budget; the profiler itself never touches simulated
 * state, so enabling it cannot change any simulation output.
 *
 * Fork safety: a forked worker inherits a copy of the parent's state;
 * workers _exit() without exporting, so only the parent's spans reach
 * the trace. Scopes must strictly nest per thread (RAII guarantees it).
 */

#ifndef PUBS_COMMON_PROFILER_HH
#define PUBS_COMMON_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pubs
{
class StatRegistry;
} // namespace pubs

namespace pubs::prof
{

/** Is the profiler recording? (one relaxed load; the Scope fast path) */
bool enabled();

/**
 * Start recording. @p sampleInterval gates the pipeline's per-cycle
 * stage scopes: they are timed on cycles where
 * cycle % sampleInterval == 0 (0 keeps the current / default interval).
 * Idempotent; does not clear previously recorded data.
 */
void enable(uint64_t sampleInterval = 0);

/** Stop recording (recorded data stays until reset()). */
void disable();

/** The pipeline stage-scope sampling interval (cycles). */
uint64_t sampleInterval();

/** Should this cycle's stage phases be timed? */
inline bool
sampleCycle(uint64_t cycle)
{
    extern std::atomic<uint64_t> sampleInterval_;
    return enabled() &&
           cycle % sampleInterval_.load(std::memory_order_relaxed) == 0;
}

/** Drop all recorded data (aggregates, trace events, drop counts). */
void reset();

/**
 * RAII phase span. @p name must be a string literal (or otherwise
 * outlive the profiler): names are interned by pointer on the fast
 * path. Use '/'-separated names ("sweep/launch") purely as a labelling
 * convention — actual nesting comes from scope nesting.
 */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (enabled())
            open(name);
    }

    ~Scope()
    {
        if (node_ != UINT32_MAX)
            close();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void open(const char *name);
    void close();

    uint32_t node_ = UINT32_MAX; ///< thread-local tree node; MAX = no-op
    uint64_t startNs_ = 0;
};

/** Aggregated numbers for one phase path. */
struct PhaseStats
{
    std::string path;    ///< "sweep/launch" (parent paths joined by '/')
    uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0; ///< total minus time in child phases
    double maxSeconds = 0.0;  ///< longest single span
};

/**
 * Merge all threads' aggregates, summing identical paths. Sorted by
 * descending total.
 */
std::vector<PhaseStats> aggregate();

/**
 * Publish aggregate() into @p registry as group "profile": per path
 * <path>_count / _total_ms / _self_ms / _max_us (path '/'s become '.'
 * -free flat keys), plus trace bookkeeping (events, dropped).
 */
void fillRegistry(StatRegistry &registry);

/**
 * The recorded spans as one Chrome trace-event JSON document
 * (Perfetto / chrome://tracing loadable; strict RFC 8259).
 */
std::string traceEventsJson();

/** Write traceEventsJson() to @p path atomically; throws on I/O error. */
void writeTrace(const std::string &path);

/** Trace events recorded (across threads), and events dropped to the
 *  per-thread buffer cap. */
uint64_t traceEventCount();
uint64_t traceDroppedCount();

} // namespace pubs::prof

#endif // PUBS_COMMON_PROFILER_HH
