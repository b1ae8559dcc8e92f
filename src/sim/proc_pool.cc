#include "sim/proc_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
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
};

} // namespace

FarmStats &
FarmStats::operator+=(const FarmStats &other)
{
    launches += other.launches;
    crashes += other.crashes;
    timeouts += other.timeouts;
    corruptFrames += other.corruptFrames;
    retries += other.retries;
    permanentFailures += other.permanentFailures;
    journalServed += other.journalServed;
    busySeconds += other.busySeconds;
    wallSeconds += other.wallSeconds;
    return *this;
}

ProcPool::ProcPool(Config config) : config_(std::move(config))
{
    procs_ = config_.procs ? config_.procs : hardwareThreads();
}

std::vector<ProcResult>
ProcPool::run(size_t n, const ChildFn &fn, const ResultHook &onResult)
{
    stats_ = FarmStats{};
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
            std::string frame =
                proc::encodeFrame(fn(task.index, task.attempt));
            if (faults.injectCorrupt(task.index, task.attempt) &&
                frame.size() > proc::frameHeaderBytes) {
                size_t victim = proc::frameHeaderBytes +
                                (task.index + task.attempt) %
                                    (frame.size() - proc::frameHeaderBytes);
                frame[victim] = (char)(frame[victim] ^ 0x20);
            }
            proc::writeAll(wfd, frame);
            ::close(wfd);
        });
        Running r;
        r.child = child;
        r.index = task.index;
        r.attempt = task.attempt;
        r.start = Clock::now();
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

    /**
     * Reap a finished worker and judge its stream, which must be exactly
     * one intact frame: anything else is retried, never believed.
     */
    auto reap = [&](Running &r) {
        prof::Scope span("sweep/reap");
        int status = collect(r);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            ++stats_.crashes;
            fail(r, proc::describeStatus(status));
            return;
        }
        ProcResult outcome;
        proc::FrameStatus frame = proc::nextFrame(r.buffer, outcome.payload);
        if (frame == proc::FrameStatus::Ok && r.buffer.empty()) {
            outcome.ok = true;
            outcome.attempts = r.attempt;
            finish(r.index, std::move(outcome));
            return;
        }
        ++stats_.corruptFrames;
        fail(r, frame == proc::FrameStatus::Corrupt
                    ? "corrupt frame in worker stream (CRC/framing "
                      "mismatch)"
                : frame == proc::FrameStatus::Truncated
                    ? "worker stream ended without a complete frame"
                    : "bytes after the result frame");
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
                } else if (got == 0 ||
                           (got < 0 && errno != EINTR &&
                            errno != EAGAIN)) {
                    done = true; // EOF: worker closed its pipe end
                }
            }
            if (!done && r.hasDeadline && now >= r.deadline) {
                ++stats_.timeouts;
                char why[80];
                std::snprintf(why, sizeof(why),
                              "timed out after %.1f s (SIGKILL)",
                              config_.timeoutSeconds);
                ::kill(r.child.pid, SIGKILL);
                collect(r);
                fail(r, why);
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
