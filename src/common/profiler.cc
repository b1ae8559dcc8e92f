#include "common/profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/stats.hh"

namespace pubs::prof
{

std::atomic<uint64_t> sampleInterval_{1024};

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

/** Aggregation-tree node: one phase path within one thread. */
struct Node
{
    const char *name;
    uint32_t parent;    ///< index into the owning log's nodes; MAX = root
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t childNs = 0; ///< time spent in direct children
    uint64_t maxNs = 0;
};

/** Cap on buffered trace events per thread; drops are counted. */
constexpr size_t traceCapacity = 1 << 17;

struct ThreadLog
{
    std::mutex mutex; ///< uncontended for the owner; taken by exporters
    std::vector<Node> nodes;
    std::vector<uint32_t> stack; ///< indices of open scopes
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    uint32_t tid = 0;

    /** Child of @p parent named @p name, created on first use. */
    uint32_t
    child(uint32_t parent, const char *name)
    {
        for (uint32_t i = 0; i < nodes.size(); ++i) {
            if (nodes[i].parent == parent && nodes[i].name == name)
                return i;
        }
        nodes.push_back(Node{name, parent});
        return (uint32_t)nodes.size() - 1;
    }
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

/** Join the path of @p node by walking parents ("sweep/launch"). */
std::string
nodePath(const std::vector<Node> &nodes, uint32_t index)
{
    std::vector<const char *> parts;
    for (uint32_t i = index; i != UINT32_MAX; i = nodes[i].parent)
        parts.push_back(nodes[i].name);
    std::string path;
    for (size_t i = parts.size(); i-- > 0;) {
        if (!path.empty())
            path += '/';
        path += parts[i];
    }
    return path;
}

} // namespace

bool
enabled()
{
    return enabled_.load(std::memory_order_relaxed);
}

void
enable(uint64_t sampleInterval)
{
    if (sampleInterval)
        sampleInterval_.store(sampleInterval, std::memory_order_relaxed);
    uint64_t expected = 0;
    epochNs_.compare_exchange_strong(expected, nowNs());
    enabled_.store(true, std::memory_order_relaxed);
}

void
disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

uint64_t
sampleInterval()
{
    return sampleInterval_.load(std::memory_order_relaxed);
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        log->nodes.clear();
        log->stack.clear();
        log->events.clear();
        log->dropped = 0;
    }
    epochNs_.store(enabled() ? nowNs() : 0, std::memory_order_relaxed);
}

void
Scope::open(const char *name)
{
    ThreadLog &log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    uint32_t parent = log.stack.empty() ? UINT32_MAX : log.stack.back();
    node_ = log.child(parent, name);
    log.stack.push_back(node_);
    startNs_ = nowNs();
}

void
Scope::close()
{
    uint64_t end = nowNs();
    uint64_t dur = end - startNs_;
    ThreadLog &log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    // RAII guarantees strict nesting, so this scope is the top of the
    // stack — unless reset() ran mid-span, which empties it.
    if (!log.stack.empty() && log.stack.back() == node_) {
        log.stack.pop_back();
        Node &node = log.nodes[node_];
        ++node.count;
        node.totalNs += dur;
        node.maxNs = std::max(node.maxNs, dur);
        if (node.parent != UINT32_MAX)
            log.nodes[node.parent].childNs += dur;
        uint64_t epoch = epochNs_.load(std::memory_order_relaxed);
        if (log.events.size() < traceCapacity) {
            log.events.push_back(TraceEvent{
                node.name, startNs_ > epoch ? startNs_ - epoch : 0, dur});
        } else {
            ++log.dropped;
        }
    }
}

std::vector<PhaseStats>
aggregate()
{
    std::map<std::string, PhaseStats> merged;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        for (uint32_t i = 0; i < log->nodes.size(); ++i) {
            const Node &node = log->nodes[i];
            if (node.count == 0)
                continue;
            std::string path = nodePath(log->nodes, i);
            PhaseStats &stats = merged[path];
            stats.path = path;
            stats.count += node.count;
            stats.totalSeconds += (double)node.totalNs * 1e-9;
            // Children can slightly overshoot the parent when clock
            // reads straddle; clamp self at zero.
            uint64_t selfNs = node.totalNs > node.childNs
                                  ? node.totalNs - node.childNs
                                  : 0;
            stats.selfSeconds += (double)selfNs * 1e-9;
            stats.maxSeconds =
                std::max(stats.maxSeconds, (double)node.maxNs * 1e-9);
        }
    }
    std::vector<PhaseStats> out;
    out.reserve(merged.size());
    for (auto &entry : merged)
        out.push_back(std::move(entry.second));
    std::sort(out.begin(), out.end(),
              [](const PhaseStats &a, const PhaseStats &b) {
                  return a.totalSeconds > b.totalSeconds;
              });
    return out;
}

void
fillRegistry(StatRegistry &statRegistry)
{
    std::vector<PhaseStats> phases = aggregate();
    StatGroup &group = statRegistry.group("profile");
    group.add("phases", (double)phases.size(),
              "distinct phase paths recorded");
    group.add("trace_events", (double)traceEventCount());
    group.add("trace_dropped", (double)traceDroppedCount(),
              "spans dropped to the per-thread trace buffer cap");
    for (const PhaseStats &phase : phases) {
        // Flatten "sweep/launch" to "sweep_launch": dots would nest
        // JSON groups and slashes read poorly in flat key lists.
        std::string key = phase.path;
        for (char &c : key)
            if (c == '/')
                c = '_';
        group.add(key + "_count", (double)phase.count);
        group.add(key + "_total_ms", phase.totalSeconds * 1e3);
        group.add(key + "_self_ms", phase.selfSeconds * 1e3);
        group.add(key + "_max_us", phase.maxSeconds * 1e6);
    }
}

std::string
traceEventsJson()
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
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
    out << "\n]}\n";
    return out.str();
}

void
writeTrace(const std::string &path)
{
    atomicWriteFileOrThrow(path, traceEventsJson());
}

uint64_t
traceEventCount()
{
    uint64_t n = 0;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        n += log->events.size();
    }
    return n;
}

uint64_t
traceDroppedCount()
{
    uint64_t n = 0;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadLog *log : r.logs) {
        std::lock_guard<std::mutex> own(log->mutex);
        n += log->dropped;
    }
    return n;
}

} // namespace pubs::prof
