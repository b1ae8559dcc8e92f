/**
 * @file
 * Host-phase span recorder: where does the simulator spend *host* time?
 *
 * Usage: pubs::prof::Scope s("sweep/launch"); — an RAII timer that is a
 * few nanoseconds of no-op when profiling is disabled (one relaxed
 * atomic load), and records one complete span when enabled. The spans
 * export as Chrome trace-event JSON ("traceEvents" array of complete
 * "X" events, microsecond timestamps) loadable in Perfetto or
 * chrome://tracing; nesting shows as containment on a thread's track.
 *
 * Hot-path discipline: per-thread state only (a registry of thread
 * logs, each with its own mutex taken uncontended by its owner) and a
 * bounded event buffer per thread. Spans past the cap are dropped,
 * never block, and are counted in the trace's
 * otherData.dropped_spans. The profiler never touches simulated state,
 * so enabling it cannot change any simulation output.
 *
 * Fork safety: a forked worker inherits a copy of the parent's state;
 * workers _exit() without exporting, so only the parent's spans reach
 * the trace.
 */

#ifndef PUBS_COMMON_PROFILER_HH
#define PUBS_COMMON_PROFILER_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace pubs::prof
{

/** Spans buffered per thread; later ones are dropped and counted. */
constexpr size_t traceCapacity = 1 << 17;

/** Is the profiler recording? (one relaxed load; the Scope fast path) */
bool enabled();

/** Start recording. Idempotent; keeps previously recorded spans. */
void enable();

/** Stop recording (recorded spans stay until reset()). */
void disable();

/** Drop all recorded spans and drop counts. */
void reset();

/**
 * RAII span. @p name must be a string literal (or otherwise outlive
 * the profiler): it is stored by pointer.
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
        if (name_)
            close();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void open(const char *name);
    void close();

    const char *name_ = nullptr; ///< nullptr = opened while disabled
    uint64_t startNs_ = 0;
};

/**
 * The recorded spans as one Chrome trace-event JSON document
 * (Perfetto / chrome://tracing loadable; strict RFC 8259), with the
 * number of spans dropped to the per-thread cap in
 * otherData.dropped_spans.
 */
std::string traceEventsJson();

/** Write traceEventsJson() to @p path atomically; throws on I/O error. */
void writeTrace(const std::string &path);

} // namespace pubs::prof

#endif // PUBS_COMMON_PROFILER_HH
