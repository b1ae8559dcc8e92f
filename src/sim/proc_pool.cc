#include "sim/proc_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/profiler.hh"
#include "sim/parallel_for.hh"

namespace pubs::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0') {
        warn_once("ignoring malformed %s value '%s'", name, value);
        return fallback;
    }
    return parsed;
}

/** Write all of @p data to @p fd, tolerating EINTR and short writes. */
void
writeAll(int fd, const char *data, size_t len)
{
    size_t written = 0;
    while (written < len) {
        ssize_t n = ::write(fd, data + written, len - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // parent gone (EPIPE) or pipe broken: nothing to do
        }
        written += (size_t)n;
    }
}

/** A task waiting to (re)start. */
struct Ready
{
    size_t index;
    unsigned attempt; ///< attempt number this launch will be (from 1)
    Clock::time_point notBefore;
};

/** A live worker. */
struct Running
{
    proc::Child child;
    size_t index;
    unsigned attempt;
    Clock::time_point start;
    Clock::time_point deadline;
    bool hasDeadline;
    std::string buffer; ///< frame bytes read so far
    Clock::time_point lastByte;  ///< heartbeat for staleness
    bool sawBytes = false;       ///< heartbeat only arms after 1st byte
    std::string result;          ///< decoded 'R' payload, if any
    bool haveResult = false;
    bool corrupt = false;        ///< stream had an untrustworthy frame
};

} // namespace

ProcPool::Config
ProcPool::configFromEnv(Config base)
{
    double timeout = envDouble("PUBS_PROC_TIMEOUT", base.timeoutSeconds);
    base.timeoutSeconds = timeout;
    double retries = envDouble("PUBS_PROC_RETRIES", base.maxAttempts);
    if (retries >= 1.0)
        base.maxAttempts = (unsigned)retries;
    double backoff = envDouble("PUBS_PROC_BACKOFF_MS", base.backoffBaseMs);
    if (backoff >= 0.0)
        base.backoffBaseMs = (unsigned)backoff;
    base.staleSeconds = envDouble("PUBS_PROC_STALE", base.staleSeconds);
    return base;
}

ProcPool::ProcPool(Config config) : config_(std::move(config))
{
    procs_ = config_.procs ? config_.procs : hardwareThreads();
    if (config_.faultsFromEnv)
        config_.faults = proc::faultPlanFromEnv();
}

std::vector<ProcResult>
ProcPool::run(size_t n, const ChildFn &fn, const ResultHook &onResult)
{
    stats_ = ProcPoolStats{};
    std::vector<ProcResult> results(n);
    if (n == 0)
        return results;

    Clock::time_point runStart = Clock::now();
    const proc::FaultPlan &faults = config_.faults;

    std::deque<Ready> ready;
    for (size_t i = 0; i < n; ++i)
        ready.push_back({i, 1, runStart});
    std::vector<Running> running;
    size_t outstanding = n; ///< tasks without a final outcome yet

    auto launch = [&](const Ready &task) {
        prof::Scope span("sweep/launch");
        proc::Child child = proc::spawnChild([&, task](int wfd) {
            // --- worker process ---
            if (faults.injectCrash(task.index, task.attempt)) {
                // Restore the default handler so sanitizer runtimes
                // don't turn the injected segfault into a report; the
                // parent only sees "killed by signal 11" either way.
                ::signal(SIGSEGV, SIG_DFL);
                ::raise(SIGSEGV);
            }
            if (faults.injectHang(task.index, task.attempt)) {
                for (;;)
                    ::pause();
            }
            if (config_.onProgress)
                progress::setFrameSink(wfd, config_.progressIntervalMs);
            std::string payload = fn(task.index, task.attempt);
            // Stop heartbeats before the result frame so nothing
            // interleaves after it.
            progress::clearSink();
            payload.insert(payload.begin(), 'R');
            std::string frame = proc::encodeFrame(payload);
            if (faults.injectCorrupt(task.index, task.attempt) &&
                frame.size() > proc::frameHeaderBytes) {
                size_t victim = proc::frameHeaderBytes +
                                (task.index + task.attempt) %
                                    (frame.size() - proc::frameHeaderBytes);
                frame[victim] = (char)(frame[victim] ^ 0x20);
            }
            writeAll(wfd, frame.data(), frame.size());
            ::close(wfd);
        });
        Running r;
        r.child = child;
        r.index = task.index;
        r.attempt = task.attempt;
        r.start = Clock::now();
        r.lastByte = r.start;
        r.hasDeadline = config_.timeoutSeconds > 0.0;
        if (r.hasDeadline) {
            r.deadline =
                r.start + std::chrono::microseconds((int64_t)(
                              config_.timeoutSeconds * 1e6));
        }
        running.push_back(std::move(r));
        ++stats_.launches;
    };

    auto finish = [&](size_t slot, ProcResult outcome) {
        results[slot] = std::move(outcome);
        --outstanding;
        if (onResult)
            onResult(slot, results[slot]);
    };

    auto fail = [&](const Running &r, const std::string &why) {
        if (config_.verbose) {
            std::fprintf(stderr,
                         "  proc: task %zu attempt %u/%u failed (%s)%s\n",
                         r.index, r.attempt, config_.maxAttempts,
                         why.c_str(),
                         r.attempt < config_.maxAttempts
                             ? ", retrying"
                             : ", skipping");
        }
        if (r.attempt < config_.maxAttempts) {
            ++stats_.retries;
            auto delay = std::chrono::milliseconds(
                (uint64_t)config_.backoffBaseMs
                << std::min(r.attempt - 1, 10u));
            ready.push_back({r.index, r.attempt + 1, Clock::now() + delay});
        } else {
            ++stats_.permanentFailures;
            ProcResult outcome;
            outcome.ok = false;
            outcome.attempts = r.attempt;
            outcome.error = "worker process failed after " +
                            std::to_string(r.attempt) + " attempt" +
                            (r.attempt == 1 ? "" : "s") +
                            "; last failure: " + why;
            finish(r.index, std::move(outcome));
        }
    };

    /**
     * Drain complete frames out of r.buffer, dispatching progress
     * samples and capturing the result. A bad frame or an unknown type
     * byte poisons the whole stream (r.corrupt) — retry is the only
     * safe answer once framing is lost.
     */
    auto drainFrames = [&](Running &r) {
        std::string payload;
        while (!r.corrupt) {
            proc::FrameStatus status = proc::nextFrame(r.buffer, payload);
            if (status == proc::FrameStatus::Truncated)
                return;
            if (status == proc::FrameStatus::Corrupt) {
                r.corrupt = true;
                return;
            }
            if (payload.empty()) {
                r.corrupt = true;
                return;
            }
            char type = payload[0];
            payload.erase(0, 1);
            if (type == 'R') {
                r.result = std::move(payload);
                r.haveResult = true;
            } else if (type == 'P') {
                progress::Sample sample;
                if (!progress::decodeSample(payload, sample)) {
                    r.corrupt = true;
                    return;
                }
                if (config_.onProgress)
                    config_.onProgress(sample);
            } else {
                r.corrupt = true;
                return;
            }
        }
    };

    /**
     * Wait for a worker that exited or was killed and close its pipe.
     * @return its wait status, or -1 if it could not be collected.
     */
    auto collect = [&](Running &r) {
        int status = 0;
        pid_t waited;
        do {
            waited = ::waitpid(r.child.pid, &status, 0);
        } while (waited < 0 && errno == EINTR);
        ::close(r.child.fd);
        stats_.busySeconds +=
            std::chrono::duration<double>(Clock::now() - r.start).count();
        return waited == r.child.pid ? status : -1;
    };

    /** Reap a finished worker and judge its frame(s). */
    auto reap = [&](Running &r) {
        prof::Scope span("sweep/reap");
        int status = collect(r);
        bool cleanExit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        drainFrames(r);
        // Leftover bytes after EOF are a partial frame the worker never
        // finished.
        if (cleanExit && !r.corrupt && r.haveResult && r.buffer.empty()) {
            ProcResult outcome;
            outcome.ok = true;
            outcome.attempts = r.attempt;
            outcome.payload = std::move(r.result);
            finish(r.index, std::move(outcome));
            return;
        }
        if (!cleanExit) {
            ++stats_.crashes;
            fail(r, proc::describeStatus(status));
        } else {
            ++stats_.corruptFrames;
            fail(r, r.corrupt ? "corrupt frame in worker stream "
                                "(CRC/framing mismatch)"
                    : !r.haveResult
                        ? "worker stream ended without a result frame"
                        : "trailing partial frame after the result");
        }
    };

    /** SIGKILL a live worker and send its task down the retry path. */
    auto killWorker = [&](Running &r, const char *why) {
        ::kill(r.child.pid, SIGKILL);
        collect(r);
        fail(r, why);
    };

    while (outstanding > 0) {
        Clock::time_point now = Clock::now();

        // Launch every eligible task while worker slots are free.
        bool launched = true;
        while (launched && running.size() < procs_ && !ready.empty()) {
            launched = false;
            for (size_t i = 0; i < ready.size(); ++i) {
                if (ready[i].notBefore <= now) {
                    Ready task = ready[i];
                    ready.erase(ready.begin() + (long)i);
                    launch(task);
                    launched = true;
                    break;
                }
            }
        }

        if (running.empty()) {
            if (ready.empty())
                break; // defensive: nothing running, nothing to run
            // Everything is in backoff: sleep until the earliest retry.
            Clock::time_point earliest = ready.front().notBefore;
            for (const Ready &task : ready)
                earliest = std::min(earliest, task.notBefore);
            std::this_thread::sleep_until(earliest);
            continue;
        }

        // Wait for output, exit, or the nearest deadline/retry tick.
        Clock::time_point wake = now + std::chrono::milliseconds(200);
        for (const Running &r : running)
            if (r.hasDeadline)
                wake = std::min(wake, r.deadline);
        for (const Ready &task : ready)
            wake = std::min(wake, task.notBefore);
        int timeoutMs = (int)std::max<int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   wake - now)
                   .count());

        std::vector<struct pollfd> fds(running.size());
        for (size_t i = 0; i < running.size(); ++i)
            fds[i] = {running[i].child.fd, POLLIN, 0};
        int rc = ::poll(fds.data(), (nfds_t)fds.size(), timeoutMs);
        if (rc < 0 && errno != EINTR) {
            panic("proc pool poll failed: %s", std::strerror(errno));
        }

        now = Clock::now();
        for (size_t i = running.size(); i-- > 0;) {
            Running &r = running[i];
            bool done = false;
            if (rc > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
                char chunk[4096];
                ssize_t got = ::read(r.child.fd, chunk, sizeof(chunk));
                if (got > 0) {
                    r.buffer.append(chunk, (size_t)got);
                    r.lastByte = now;
                    r.sawBytes = true;
                    drainFrames(r); // deliver progress as it lands
                } else if (got == 0 ||
                           (got < 0 && errno != EINTR &&
                            errno != EAGAIN)) {
                    done = true; // EOF: worker closed its pipe end
                }
            }
            char why[80];
            if (!done && config_.staleSeconds > 0.0 && r.sawBytes &&
                std::chrono::duration<double>(now - r.lastByte).count() >
                    config_.staleSeconds) {
                // The heartbeat stream went quiet: presume the worker is
                // wedged and recycle it through the retry machinery.
                ++stats_.staleKills;
                std::snprintf(why, sizeof(why),
                              "stale heartbeat: no pipe bytes for %.1f s "
                              "(SIGKILL)",
                              config_.staleSeconds);
                killWorker(r, why);
            } else if (!done && r.hasDeadline && now >= r.deadline) {
                ++stats_.timeouts;
                std::snprintf(why, sizeof(why),
                              "timed out after %.1f s (SIGKILL)",
                              config_.timeoutSeconds);
                killWorker(r, why);
            } else if (done) {
                reap(r);
            } else {
                continue;
            }
            running.erase(running.begin() + (long)i);
        }
    }

    stats_.wallSeconds =
        std::chrono::duration<double>(Clock::now() - runStart).count();
    return results;
}

} // namespace pubs::sim
