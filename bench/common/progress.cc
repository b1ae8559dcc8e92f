#include "common/progress.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/stats.hh"

namespace pubs::bench
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

constexpr uint64_t msToNs = 1000000;
constexpr uint64_t drawIntervalMs = 100;
constexpr uint64_t jsonIntervalMs = 200;
constexpr unsigned nonTtyStepPct = 10;

} // namespace

ProgressMeter::ProgressMeter(std::string jsonPath)
    : jsonPath_(std::move(jsonPath)), tty_(isatty(STDERR_FILENO) == 1),
      startNs_(nowNs())
{
}

ProgressMeter::~ProgressMeter()
{
    finish();
}

void
ProgressMeter::addRuns(size_t runs)
{
    total_ += runs;
    loggedPct_ = pct() - pct() % nonTtyStepPct;
    priorRetries_ = retries_;
    priorTimeouts_ = timeouts_;
    writeJson(true);
}

void
ProgressMeter::runFinished(bool ok, uint64_t instructions)
{
    if (finished_)
        return;
    ++done_;
    if (ok)
        instructions_ += instructions;
    else
        ++failed_;
    draw(false);
    writeJson(false);
}

void
ProgressMeter::setFarmTotals(uint64_t retries, uint64_t timeouts)
{
    retries_ = priorRetries_ + retries;
    timeouts_ = priorTimeouts_ + timeouts;
}

void
ProgressMeter::finish()
{
    if (finished_)
        return;
    draw(true);
    if (tty_ && drewLine_)
        std::fprintf(stderr, "\n");
    writeJson(true);
    finished_ = true;
}

unsigned
ProgressMeter::pct() const
{
    return total_ ? (unsigned)(100 * done_ / total_) : 0;
}

double
ProgressMeter::kips(double seconds) const
{
    return seconds > 0.0 ? (double)instructions_ * 1e-3 / seconds : 0.0;
}

double
ProgressMeter::elapsed() const
{
    return (double)(nowNs() - startNs_) * 1e-9;
}

std::string
ProgressMeter::line() const
{
    std::ostringstream line;
    line << "[" << done_ << "/" << total_ << "] " << pct() << "%";
    if (double k = kips(elapsed()); k > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", k);
        line << "  " << buf << " KIPS";
    }
    if (failed_)
        line << "  failed " << failed_;
    if (retries_)
        line << "  retries " << retries_;
    return line.str();
}

std::string
ProgressMeter::json() const
{
    const double seconds = elapsed();
    std::ostringstream doc;
    doc << "{\n"
        << "  \"total_runs\": " << total_ << ",\n"
        << "  \"done\": " << done_ << ",\n"
        << "  \"failed\": " << failed_ << ",\n"
        << "  \"pct\": " << pct() << ",\n"
        << "  \"retries\": " << retries_ << ",\n"
        << "  \"timeouts\": " << timeouts_ << ",\n"
        << "  \"elapsed_seconds\": " << jsonNumber(seconds) << ",\n"
        << "  \"kips\": " << jsonNumber(kips(seconds)) << "\n"
        << "}\n";
    return doc.str();
}

void
ProgressMeter::draw(bool force)
{
    uint64_t now = nowNs();
    if (tty_) {
        if (!force && now - lastDrawNs_ < drawIntervalMs * msToNs)
            return;
        lastDrawNs_ = now;
        std::fprintf(stderr, "\r\033[K%s", line().c_str());
        drewLine_ = true;
        return;
    }
    // One line per 10% step keeps logs bounded. Only finish() writes a
    // line that counts every run: a later sweep may still add runs.
    unsigned p = pct();
    if (force ? loggedDone_ == done_
              : p < loggedPct_ + nonTtyStepPct || done_ == total_)
        return;
    if (!force)
        loggedPct_ = p - p % nonTtyStepPct;
    loggedDone_ = done_;
    std::fprintf(stderr,
                 "progress: done=%zu/%zu pct=%u kips=%.0f failed=%zu "
                 "retries=%" PRIu64 " timeouts=%" PRIu64 "\n",
                 done_, total_, p, kips(elapsed()), failed_, retries_,
                 timeouts_);
}

void
ProgressMeter::writeJson(bool force)
{
    if (jsonPath_.empty())
        return;
    uint64_t now = nowNs();
    if (!force && now - lastJsonNs_ < jsonIntervalMs * msToNs)
        return;
    lastJsonNs_ = now;
    // Best-effort: losing a progress snapshot must not kill a sweep.
    atomicWriteFile(jsonPath_, json());
}

} // namespace pubs::bench
