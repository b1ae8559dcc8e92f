#include "common/progress.hh"

#include <chrono>
#include <cinttypes>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/subprocess.hh"

namespace pubs::progress
{

namespace
{

uint64_t
nowNs()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr char sampleMagic[4] = {'P', 'B', 'P', 'G'};
constexpr uint8_t sampleVersion = 1;

/** Labels are short workload names; anything huge is a decode error. */
constexpr size_t sampleMaxLabel = 4096;

constexpr uint64_t msToNs = 1000000;

} // namespace

// --- sample codec ----------------------------------------------------

std::string
encodeSample(const Sample &sample)
{
    Serializer s;
    s.bytes(sampleMagic, sizeof(sampleMagic));
    s.u8(sampleVersion);
    s.u64(sample.slot);
    s.u64(sample.insts);
    s.u64(sample.totalInsts);
    s.f64(sample.kips);
    s.u64(sample.rssBytes);
    s.str(sample.label.substr(0, sampleMaxLabel));
    return s.data();
}

bool
decodeSample(const std::string &payload, Sample &sample)
{
    try {
        Deserializer d(payload);
        char magic[sizeof(sampleMagic)];
        d.bytes(magic, sizeof(magic));
        if (std::memcmp(magic, sampleMagic, sizeof(magic)) != 0 ||
            d.u8() != sampleVersion)
            return false;
        sample.slot = d.u64();
        sample.insts = d.u64();
        sample.totalInsts = d.u64();
        sample.kips = d.f64();
        sample.rssBytes = d.u64();
        sample.label = d.str();
        d.expectEnd();
        return sample.label.size() <= sampleMaxLabel;
    } catch (const CheckpointError &) {
        return false;
    }
}

uint64_t
currentRssBytes()
{
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long totalPages = 0, rssPages = 0;
    int got = std::fscanf(f, "%llu %llu", &totalPages, &rssPages);
    std::fclose(f);
    if (got != 2)
        return 0;
    long pageBytes = sysconf(_SC_PAGESIZE);
    if (pageBytes <= 0)
        pageBytes = 4096;
    return (uint64_t)rssPages * (uint64_t)pageBytes;
}

// --- worker-side reporter --------------------------------------------

std::atomic<bool> sinkInstalled_{false};

namespace
{

struct SinkState
{
    std::mutex mutex;
    int fd = -1;
    std::function<void(const Sample &)> callback;
};

SinkState &
sinkState()
{
    static SinkState *s = new SinkState;
    return *s;
}

/** The task the calling thread is reporting on. */
struct TaskCtx
{
    bool active = false;
    uint64_t slot = 0;
    std::string label;
    uint64_t totalInsts = 0;
    uint64_t baseInsts = 0;  ///< insts from completed phases
    uint64_t phaseInsts = 0; ///< last tick() in the current phase
    uint64_t startNs = 0;
    uint64_t lastEmitNs = 0;
};

TaskCtx &
taskCtx()
{
    thread_local TaskCtx ctx;
    return ctx;
}

/** Build and deliver one sample for the calling thread's task. */
void
emitSample(TaskCtx &ctx, uint64_t now)
{
    Sample sample;
    sample.slot = ctx.slot;
    sample.insts = ctx.baseInsts + ctx.phaseInsts;
    sample.totalInsts = ctx.totalInsts;
    double elapsed = (double)(now - ctx.startNs) * 1e-9;
    sample.kips =
        elapsed > 0.0 ? (double)sample.insts * 1e-3 / elapsed : 0.0;
    sample.rssBytes = currentRssBytes();
    sample.label = ctx.label;

    SinkState &sink = sinkState();
    std::lock_guard<std::mutex> lock(sink.mutex);
    // Best-effort: if the reader is gone, the result frame fails loudly.
    if (sink.fd >= 0)
        proc::writeAll(sink.fd,
                       proc::encodeFrame("P" + encodeSample(sample)));
    else if (sink.callback)
        sink.callback(sample);
    ctx.lastEmitNs = now;
}

} // namespace

bool
enabled()
{
    return sinkInstalled_.load(std::memory_order_relaxed);
}

void
tickSlow(uint64_t instsDone)
{
    TaskCtx &ctx = taskCtx();
    if (!ctx.active)
        return;
    ctx.phaseInsts = instsDone;
    uint64_t now = nowNs();
    if (now - ctx.lastEmitNs < sampleIntervalMs * msToNs)
        return;
    emitSample(ctx, now);
}

void
beginTask(uint64_t slot, const std::string &label, uint64_t totalInsts)
{
    TaskCtx &ctx = taskCtx();
    ctx.active = true;
    ctx.slot = slot;
    ctx.label = label;
    ctx.totalInsts = totalInsts;
    ctx.baseInsts = 0;
    ctx.phaseInsts = 0;
    ctx.startNs = nowNs();
    // Let the first tick() through immediately so short tasks still
    // announce themselves.
    ctx.lastEmitNs = 0;
}

void
phaseDone()
{
    TaskCtx &ctx = taskCtx();
    if (!ctx.active)
        return;
    ctx.baseInsts += ctx.phaseInsts;
    ctx.phaseInsts = 0;
}

void
endTask()
{
    TaskCtx &ctx = taskCtx();
    if (!ctx.active)
        return;
    if (enabled())
        emitSample(ctx, nowNs());
    ctx.active = false;
    ctx.label.clear();
}

void
setFrameSink(int fd)
{
    SinkState &sink = sinkState();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.fd = fd;
    sink.callback = nullptr;
    sinkInstalled_.store(true, std::memory_order_relaxed);
}

void
setCallbackSink(std::function<void(const Sample &)> fn)
{
    SinkState &sink = sinkState();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.fd = -1;
    sink.callback = std::move(fn);
    sinkInstalled_.store(true, std::memory_order_relaxed);
}

void
clearSink()
{
    SinkState &sink = sinkState();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.fd = -1;
    sink.callback = nullptr;
    sinkInstalled_.store(false, std::memory_order_relaxed);
}

// --- broker-side meter -----------------------------------------------

namespace
{

constexpr uint64_t drawIntervalMs = 100;
constexpr uint64_t jsonIntervalMs = 200;
constexpr unsigned nonTtyStepPct = 10;

} // namespace

struct Meter::Impl
{
    mutable std::mutex mutex;
    Config config;
    bool tty = false;
    bool finished = false;

    std::map<uint64_t, Sample> active; ///< keyed by slot, so sorted
    size_t done = 0;
    size_t failed = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    uint64_t staleKills = 0;
    uint64_t startNs = 0;
    uint64_t lastDrawNs = 0;
    uint64_t lastJsonNs = 0;
    unsigned lastLoggedPct = 0; ///< non-TTY step tracking
    bool drewMeter = false;     ///< a \r meter line is on screen

    unsigned
    overallPct() const
    {
        if (config.totalRuns == 0)
            return 0;
        return (unsigned)(100 * done / config.totalRuns);
    }

    double
    aggregateKips() const
    {
        double total = 0.0;
        for (const auto &entry : active)
            total += entry.second.kips;
        return total;
    }

    std::string
    renderLine() const
    {
        std::ostringstream line;
        line << "[" << done << "/" << config.totalRuns << "] "
             << overallPct() << "%  " << active.size() << " active";
        double kips = aggregateKips();
        if (kips > 0.0) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.0f", kips);
            line << "  " << buf << " KIPS";
        }
        // Show the farthest-behind active run: it bounds the sweep.
        const Sample *laggard = nullptr;
        double laggardPct = 101.0;
        for (const auto &entry : active) {
            const Sample &s = entry.second;
            if (s.totalInsts == 0)
                continue;
            double pct = 100.0 * (double)s.insts / (double)s.totalInsts;
            if (pct < laggardPct) {
                laggardPct = pct;
                laggard = &s;
            }
        }
        if (laggard) {
            line << "  " << laggard->label << " "
                 << (unsigned)laggardPct << "%";
        }
        if (failed)
            line << "  failed " << failed;
        if (retries)
            line << "  retries " << retries;
        return line.str();
    }

    std::string
    renderJson() const
    {
        std::ostringstream doc;
        doc << "{\n";
        doc << "  \"total_runs\": " << config.totalRuns << ",\n";
        doc << "  \"done\": " << done << ",\n";
        doc << "  \"failed\": " << failed << ",\n";
        doc << "  \"pct\": " << overallPct() << ",\n";
        doc << "  \"retries\": " << retries << ",\n";
        doc << "  \"timeouts\": " << timeouts << ",\n";
        doc << "  \"stale_kills\": " << staleKills << ",\n";
        doc << "  \"elapsed_seconds\": "
            << jsonNumber((double)(nowNs() - startNs) * 1e-9) << ",\n";
        doc << "  \"aggregate_kips\": " << jsonNumber(aggregateKips())
            << ",\n";
        doc << "  \"active\": [";
        bool first = true;
        for (const auto &entry : active) {
            const Sample &s = entry.second;
            doc << (first ? "\n" : ",\n");
            first = false;
            double pct = s.totalInsts
                             ? 100.0 * (double)s.insts / (double)s.totalInsts
                             : 0.0;
            doc << "    {\"slot\": " << s.slot << ", \"label\": \""
                << jsonEscape(s.label) << "\", \"insts\": " << s.insts
                << ", \"total_insts\": " << s.totalInsts
                << ", \"pct\": " << jsonNumber(pct)
                << ", \"kips\": " << jsonNumber(s.kips)
                << ", \"rss_bytes\": " << s.rssBytes << "}";
        }
        doc << (first ? "]\n" : "\n  ]\n");
        doc << "}\n";
        return doc.str();
    }

    void
    draw(bool force)
    {
        if (config.quiet)
            return;
        uint64_t now = nowNs();
        if (tty) {
            if (!force && now - lastDrawNs < drawIntervalMs * msToNs)
                return;
            lastDrawNs = now;
            std::fprintf(stderr, "\r\033[K%s", renderLine().c_str());
            drewMeter = true;
            return;
        }
        // Non-TTY: one machine-readable line per 10% step (and on the
        // final flush), so logs stay bounded.
        unsigned pct = overallPct();
        if (!force && pct < lastLoggedPct + nonTtyStepPct)
            return;
        if (!force)
            lastLoggedPct = pct - pct % nonTtyStepPct;
        std::fprintf(stderr,
                     "progress: done=%zu/%zu pct=%u active=%zu "
                     "kips=%.0f failed=%zu retries=%" PRIu64
                     " timeouts=%" PRIu64 " stale=%" PRIu64 "\n",
                     done, config.totalRuns, pct, active.size(),
                     aggregateKips(), failed, retries, timeouts,
                     staleKills);
    }

    void
    writeJson(bool force)
    {
        if (config.jsonPath.empty())
            return;
        uint64_t now = nowNs();
        if (!force && now - lastJsonNs < jsonIntervalMs * msToNs)
            return;
        lastJsonNs = now;
        // Best-effort: losing a progress snapshot must not kill a sweep.
        atomicWriteFile(config.jsonPath, renderJson());
    }
};

Meter::Meter(Config config) : impl_(new Impl)
{
    impl_->config = std::move(config);
    impl_->tty = isatty(STDERR_FILENO) == 1;
    impl_->startNs = nowNs();
    impl_->lastJsonNs = 0;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->writeJson(true);
}

Meter::~Meter()
{
    finish();
}

void
Meter::update(const Sample &sample)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->finished)
        return;
    impl_->active[sample.slot] = sample;
    impl_->draw(false);
    impl_->writeJson(false);
}

void
Meter::runFinished(uint64_t slot, bool ok)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->finished)
        return;
    impl_->active.erase(slot);
    ++impl_->done;
    if (!ok)
        ++impl_->failed;
    impl_->draw(false);
    impl_->writeJson(false);
}

void
Meter::setFarmTotals(uint64_t retries, uint64_t timeouts,
                     uint64_t staleKills)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->retries = retries;
    impl_->timeouts = timeouts;
    impl_->staleKills = staleKills;
}

void
Meter::finish()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->finished)
        return;
    impl_->draw(true);
    if (impl_->tty && impl_->drewMeter && !impl_->config.quiet)
        std::fprintf(stderr, "\n");
    impl_->writeJson(true);
    impl_->finished = true;
}

std::string
Meter::json() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->renderJson();
}

std::string
Meter::line() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->renderLine();
}

} // namespace pubs::progress
