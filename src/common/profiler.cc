#include "common/profiler.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/atomic_file.hh"
#include "common/stats.hh"

namespace pubs::prof
{

namespace
{

std::atomic<bool> enabled_{false};

/** Epoch all timestamps are relative to (first enable()). */
std::atomic<uint64_t> epochNs_{0};

uint64_t
nowNs()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One finished span destined for the Chrome trace. */
struct TraceEvent
{
    const char *name;
    uint64_t startNs; ///< relative to the epoch
    uint64_t durNs;
};

struct ThreadLog
{
    std::mutex mutex; ///< uncontended for the owner; taken by exporters
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    uint32_t tid = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<ThreadLog *> logs; ///< leaked on thread exit; see note
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

/**
 * The calling thread's log. Logs are never freed: exporters may walk
 * them after the owning thread exited (pool threads die before the
 * driver exports), and the handful of pool threads per process makes
 * the leak irrelevant.
 */
ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = [] {
        auto *fresh = new ThreadLog;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        fresh->tid = (uint32_t)r.logs.size();
        r.logs.push_back(fresh);
        return fresh;
    }();
    return *log;
}

} // namespace

bool
enabled()
{
    return enabled_.load(std::memory_order_relaxed);
}

void
enable()
{
    uint64_t expected = 0;
    epochNs_.compare_exchange_strong(expected, nowNs());
    enabled_.store(true, std::memory_order_relaxed);
}

void
disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        log->events.clear();
        log->dropped = 0;
    }
    epochNs_.store(enabled() ? nowNs() : 0, std::memory_order_relaxed);
}

void
Scope::open(const char *name)
{
    name_ = name;
    startNs_ = nowNs();
}

void
Scope::close()
{
    uint64_t dur = nowNs() - startNs_;
    uint64_t epoch = epochNs_.load(std::memory_order_relaxed);
    ThreadLog &log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    if (log.events.size() < traceCapacity) {
        // A span opened before a reset() starts at the new epoch.
        log.events.push_back(
            TraceEvent{name_, startNs_ > epoch ? startNs_ - epoch : 0, dur});
    } else {
        ++log.dropped;
    }
}

std::string
traceEventsJson()
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    uint64_t dropped = 0;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        dropped += log->dropped;
        for (const TraceEvent &event : log->events) {
            out << (first ? "\n" : ",\n");
            first = false;
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3f",
                          (double)event.startNs * 1e-3);
            out << " {\"name\": \"" << jsonEscape(event.name)
                << "\", \"cat\": \"pubs\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": "
                << log->tid << ", \"ts\": " << buf;
            std::snprintf(buf, sizeof(buf), "%.3f",
                          (double)event.durNs * 1e-3);
            out << ", \"dur\": " << buf << "}";
        }
    }
    out << "\n], \"otherData\": {\"dropped_spans\": " << dropped << "}}\n";
    return out.str();
}

void
writeTrace(const std::string &path)
{
    atomicWriteFileOrThrow(path, traceEventsJson());
}

} // namespace pubs::prof
