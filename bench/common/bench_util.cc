#include "common/bench_util.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/checksum.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "common/progress.hh"
#include "common/report.hh"
#include "common/run_codec.hh"
#include "common/stats.hh"
#include "common/sweep_journal.hh"
#include "sim/parallel_for.hh"
#include "sim/proc_pool.hh"

namespace pubs::bench
{

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    while (cells.size() < header_.size())
        cells.emplace_back("");
    rows_.push_back(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<size_t> widths(header_.size(), 0);
    for (size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            out << cells[c]
                << std::string(widths[c] + 2 - cells[c].size(), ' ');
        }
        out << "\n";
    };
    emit(header_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    out << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return out.str();
}

std::string
pct(double ratio)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.1f%%", (ratio - 1.0) * 100.0);
    return buffer;
}

std::string
num(double value, int digits)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
    return buffer;
}

std::string
meanCell(const std::vector<double> &values, Mean mean, int digits)
{
    if (values.empty())
        return "n/a";
    double value = mean == Mean::Geometric ? geometricMean(values)
                                           : arithmeticMean(values);
    return digits < 0 ? pct(value) : num(value, digits);
}

bool
maybeWriteCsv(const RunOptions &options, const std::string &benchName,
              const TextTable &table)
{
    if (options.csvDir.empty())
        return false;
    std::string path = options.csvDir + "/" + benchName + ".csv";
    std::ostringstream out;
    auto emitRow = [&out](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c)
            out << (c ? "," : "") << cells[c];
        out << "\n";
    };
    emitRow(table.header());
    for (const auto &row : table.rows())
        emitRow(row);
    std::string error = atomicWriteFile(path, out.str());
    if (!error.empty()) {
        warn("cannot write CSV: %s", error.c_str());
        return false;
    }
    return true;
}

namespace
{

/** Serialises CSV appends across concurrent sweeps in one process. */
std::mutex csvMutex;

/**
 * Atomically append @p rows to <csvDir>/<name> (creating it with
 * @p header): a kill mid-write leaves the previous complete file, never
 * a torn one. Caller holds csvMutex; atomicity is per whole file, not
 * per line.
 */
void
appendCsvAtomic(const std::string &csvDir, const char *name,
                const char *header, const std::string &rows)
{
    if (csvDir.empty() || rows.empty())
        return;
    std::string path = csvDir + "/" + name;
    std::string error = atomicAppendFile(path, header, rows);
    if (!error.empty())
        warn("cannot append CSV: %s", error.c_str());
}

/**
 * One host-speed record for simspeed.csv, so every bench invocation
 * accumulates a simulator-performance log alongside its model results.
 */
std::string
simSpeedCsvLine(const sim::RunResult &result,
                const cpu::CoreParams &params)
{
    char line[192];
    std::snprintf(line, sizeof(line), "%s,%d,%llu,%llu,%.4f,%.1f\n",
                  result.workload.c_str(), params.usePubs ? 1 : 0,
                  (unsigned long long)result.pipeline.committed,
                  (unsigned long long)result.pipeline.cycles,
                  result.simSeconds, result.kips());
    return line;
}

constexpr const char *simSpeedCsvHeader =
    "workload,pubs,instructions,cycles,sim_seconds,kips\n";

/**
 * Record every skipped item of a finished sweep in skipped.csv (header
 * on creation), in spec order, so a batch's holes are machine-readable
 * instead of stderr-only.
 */
void
appendSkipCsv(const SweepSpec &spec, const SweepResult &result)
{
    if (result.failed() == 0)
        return;
    std::ostringstream out;
    for (size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        if (row.ok())
            continue;
        // Quote the free-text message; strip characters that would
        // break one-row-per-line parsing.
        std::string message = row.error;
        for (char &c : message)
            if (c == '\n' || c == '\r' || c == '"')
                c = ' ';
        out << spec.items[i].workload->name << ','
            << spec.items[i].machine << ',' << row.errorKind << ','
            << row.phase << ",\"" << message << "\"\n";
    }
    appendCsvAtomic(spec.options.csvDir, "skipped.csv",
                    "workload,machine,error_kind,phase,error\n",
                    out.str());
}

/**
 * One cpi_stack.csv row per clean run, in spec order: the wide format
 * (one column per top-down component) so a spreadsheet stacks them
 * without pivoting. Only written under --cpi-stack.
 */
void
appendCpiStackCsv(const SweepSpec &spec, const SweepResult &result)
{
    std::string header = "workload,machine,total_cycles";
    for (size_t c = 0; c < cpu::numCpiComponents; ++c) {
        header += ',';
        header += cpu::cpiComponentName((cpu::CpiComponent)c);
    }
    header += '\n';
    std::ostringstream out;
    for (size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        if (!row.ok())
            continue;
        const cpu::CpiStack &cpi = row.result.pipeline.cpi;
        out << spec.items[i].workload->name << ','
            << spec.items[i].machine << ',' << cpi.total();
        for (size_t c = 0; c < cpu::numCpiComponents; ++c)
            out << ',' << cpi.cycles[c];
        out << '\n';
    }
    appendCsvAtomic(spec.options.csvDir, "cpi_stack.csv", header.c_str(),
                    out.str());
}

/**
 * The per-static-branch cost profile of every clean run, in spec
 * order. Only written under --branch-profile (which forces telemetry,
 * so the rows exist).
 */
void
appendBranchProfileCsv(const SweepSpec &spec, const SweepResult &result)
{
    std::string header = "workload,machine,pc";
    // Given no sites, the field list visits its names alone.
    cpu::BranchSiteStats::forEachField([&header](const char *name) {
        header += ',';
        header += name;
    });
    header += '\n';
    std::ostringstream out;
    for (size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        if (!row.ok())
            continue;
        for (const auto &[pc, b] : row.result.branchProfile) {
            char pcText[24];
            std::snprintf(pcText, sizeof(pcText), "0x%llx",
                          (unsigned long long)pc);
            out << spec.items[i].workload->name << ','
                << spec.items[i].machine << ',' << pcText;
            cpu::BranchSiteStats::forEachField(
                [&out](const char *, uint64_t v) { out << ',' << v; }, b);
            out << '\n';
        }
    }
    appendCsvAtomic(spec.options.csvDir, "branch_profile.csv",
                    header.c_str(), out.str());
}

/** Append one pool-utilization + farm-health record to sweep_pool.csv. */
void
appendPoolCsv(const SweepSpec &spec, const SweepResult &result)
{
    const sim::FarmStats &farm = result.farm;
    char line[288];
    std::snprintf(line, sizeof(line),
                  "%zu,%zu,%u,%.4f,%.4f,%.3f,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%llu\n",
                  result.rows.size(), result.failed(), result.jobs,
                  farm.wallSeconds, farm.busySeconds,
                  result.utilization(),
                  (unsigned long long)farm.launches,
                  (unsigned long long)farm.crashes,
                  (unsigned long long)farm.timeouts,
                  (unsigned long long)farm.corruptFrames,
                  (unsigned long long)farm.retries,
                  (unsigned long long)farm.permanentFailures,
                  (unsigned long long)farm.journalServed);
    appendCsvAtomic(spec.options.csvDir, "sweep_pool.csv",
                    "runs,failed,jobs,wall_seconds,busy_seconds,"
                    "utilization,launches,crashes,timeouts,corrupt_frames,"
                    "retries,skips,journal_served\n",
                    line);
}

} // namespace

size_t
SweepSpec::add(wl::Workload workload, cpu::CoreParams params,
               std::string machine)
{
    items.push_back({std::make_shared<const wl::Workload>(std::move(workload)),
                     std::move(params), std::move(machine)});
    return items.size() - 1;
}

std::string
SweepRow::jsonMembers() const
{
    auto quoted = [](const std::string &s) {
        return '"' + jsonEscape(s) + '"';
    };
    const sim::RunResult &r = result;
    std::ostringstream out;
    out << "\"workload\": " << quoted(r.workload)
        << ", \"machine\": " << quoted(r.machine)
        << ", \"ok\": " << (ok() ? "true" : "false");
    if (!ok()) {
        out << ", \"error_kind\": " << quoted(errorKind)
            << ", \"error\": " << quoted(error);
        if (!phase.empty())
            out << ", \"phase\": " << quoted(phase);
        return out.str();
    }
    const cpu::PipelineStats &p = r.pipeline;
    out << ", \"instructions\": " << p.committed
        << ", \"cycles\": " << p.cycles
        << ", \"ipc\": " << jsonNumber(p.ipc())
        << ", \"branch_mpki\": " << jsonNumber(p.branchMpki())
        << ", \"llc_mpki\": " << jsonNumber(p.llcMpki())
        << ", \"avg_misspec_penalty\": " << jsonNumber(p.avgMisspecPenalty())
        << ", \"avg_iq_wait\": " << jsonNumber(p.avgIqWait())
        << ", \"unconfident_rate\": " << jsonNumber(r.unconfidentBranchRate)
        << ", \"pubs_enabled_fraction\": "
        << jsonNumber(r.pubsEnabledFraction)
        << ", \"priority_stall_cycles\": " << p.priorityStallCycles;
    if (r.sampled) {
        out << ", \"sampled\": true, \"windows\": " << r.windows
            << ", \"skipped_insts\": " << r.skippedInsts
            << ", \"ipc_ci95\": " << jsonNumber(r.ipcCi95)
            << ", \"branch_mpki_ci95\": " << jsonNumber(r.branchMpkiCi95)
            << ", \"llc_mpki_ci95\": " << jsonNumber(r.llcMpkiCi95);
    }
    return out.str();
}

std::string
SweepResult::statsJson() const
{
    std::ostringstream out;
    out << "{\"sweep\": {\"runs\": " << rows.size()
        << ", \"failed\": " << failed() << "},\n\"runs\": [";
    for (size_t i = 0; i < rows.size(); ++i)
        out << (i ? ",\n " : "\n ") << '{' << rows[i].jsonMembers() << '}';
    out << "\n]}\n";
    return out.str();
}

namespace
{

/**
 * Identity of a sweep for journal matching: a resumed journal must come
 * from the same items (workload, label, machine key) with the same
 * budgets, in the same order. CoreParams::key() covers every field that
 * can change a journaled row, the seed included.
 */
uint64_t
sweepKey(const SweepSpec &spec)
{
    const RunOptions &options = spec.options;
    ContentKey key;
    // Sampled rows are not interchangeable with straight-through ones,
    // and branch-profile rows ride in the journaled payload.
    key.mix(std::to_string(options.warmup) + ":" +
            std::to_string(options.insts) + ":" +
            std::to_string(spec.items.size()) + ":" +
            options.samplePlan().describe() + ":" +
            std::to_string(options.branchProfile));
    for (const SweepItem &item : spec.items) {
        // The Pipeline lets PUBS_CHECK replace both check policies, so
        // key the machine that will run, not the one that was asked for.
        cpu::CoreParams params = item.params;
        params.checkPolicy = checkPolicyFromEnv(params.checkPolicy);
        params.auditPolicy = checkPolicyFromEnv(params.auditPolicy);
        key.mix(item.workload->name);
        key.mix(item.machine);
        key.mix(params.key());
    }
    return key.value();
}

/** Run one sweep item to a SweepRow (never throws SimError out). */
SweepRow
runSweepItem(const SweepItem &item, const RunOptions &options)
{
    SweepRow row;
    sim::clearFailedPhase();
    try {
        // Each run owns its Simulator (pipeline, emulator, RNG
        // streams, stats); nothing is shared with siblings, so the
        // result depends only on the item, never on the schedule.
        cpu::CoreParams params = item.params;
        // Telemetry is purely observational (simulated cycles are
        // bit-identical with it on), so forcing it here changes only
        // what the row carries, never the model results. A row carries
        // no heartbeat series, so no run takes one.
        params.telemetry = params.telemetry || options.branchProfile;
        params.heartbeatInterval = 0;
        sim::SamplePlan plan = options.samplePlan();
        sim::RunResult r;
        if (plan.enabled()) {
            sim::CheckpointStore store(options.checkpointDir);
            r = sim::simulateSampled(
                params, item.workload->program, plan,
                options.checkpointDir.empty() ? nullptr : &store,
                item.machine);
        } else {
            r = sim::simulate(params, item.workload->program,
                              options.warmup, options.insts);
        }
        r.workload = item.workload->name;
        r.machine = item.machine;
        row.result = std::move(r);
    } catch (const SimError &error) {
        // Skip-and-continue: one broken run must not sink the batch.
        row.error = error.what();
        row.errorKind = SimError::kindName(error.kind());
        row.phase = sim::simPhaseName(sim::lastFailedPhase());
        row.result.workload = item.workload->name;
        row.result.machine = item.machine;
    }
    return row;
}

void
logSweepRow(const SweepRow &row, const SweepItem &item, size_t done,
            size_t total)
{
    if (row.ok()) {
        std::fprintf(stderr,
                     "  [%3zu/%zu] %-18s %-14s ipc=%.3f "
                     "brMPKI=%.1f llcMPKI=%.1f kips=%.0f\n",
                     done, total, item.workload->name.c_str(),
                     item.machine.c_str(), row.result.pipeline.ipc(),
                     row.result.pipeline.branchMpki(),
                     row.result.pipeline.llcMpki(), row.result.kips());
    } else {
        std::fprintf(stderr,
                     "  [%3zu/%zu] %-18s %-14s FAILED (%s: %s)\n", done,
                     total, item.workload->name.c_str(),
                     item.machine.c_str(), row.errorKind.c_str(),
                     row.error.c_str());
    }
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Run the slots in @p todo on threads or worker processes. Both
 * backends hand each slot's encoded row to one hook, which decodes it
 * into result.rows, journals it, and reports it; a worker process that
 * crashes, hangs, or corrupts its frames beyond retry arrives there as
 * a failed outcome and becomes a "proc" skip row.
 */
void
runSlots(const SweepSpec &spec, const std::vector<size_t> &todo,
         SweepResult &result, SweepJournal *journal,
         ProgressMeter *meter)
{
    const RunOptions &options = spec.options;
    std::unique_ptr<sim::ProcPool> pool;
    if (options.procs) {
        sim::ProcPool::Config config;
        config.procs = options.procs;
        config.maxAttempts = options.procRetries;
        config.timeoutSeconds = options.procTimeout;
        config.backoffBaseMs = options.procBackoffMs;
        config.faults = options.faults;
        config.verbose = spec.verbose;
        pool = std::make_unique<sim::ProcPool>(config);
        result.jobs = pool->procs();
    } else {
        result.jobs = options.jobs ? options.jobs : sim::hardwareThreads();
    }

    // Worker side: simulate and encode the row — including a SimError
    // skip row, which is a result, not a worker failure.
    auto runSlot = [&](size_t index) {
        return encodeSweepRow(runSweepItem(spec.items[todo[index]], options));
    };

    // The one result hook, in completion order: decode, journal, count,
    // report.
    std::mutex hookMutex;
    size_t completed = 0;
    auto onResult = [&](size_t index, const sim::ProcResult &outcome) {
        std::lock_guard<std::mutex> lock(hookMutex);
        size_t slot = todo[index];
        const SweepItem &item = spec.items[slot];
        SweepRow &row = result.rows[slot];
        if (outcome.ok && decodeSweepRow(outcome.payload, row)) {
            // Write-ahead: the row is durable before the sweep's final
            // output exists, so a kill from here on cannot lose it.
            if (journal) {
                prof::Scope span("journal/commit");
                journal->record(slot, outcome.payload);
            }
        } else {
            row = SweepRow{};
            row.error = outcome.ok ? "worker returned an undecodable "
                                     "result payload"
                                   : outcome.error;
            row.errorKind = SimError::kindName(SimError::Kind::Proc);
            row.result.workload = item.workload->name;
            row.result.machine = item.machine;
            // Deliberately not journaled: a --resume rerun retries the
            // slot instead of resurrecting the failure.
        }
        if (meter) {
            if (pool) {
                meter->setFarmTotals(pool->stats().retries,
                                     pool->stats().timeouts);
            }
            meter->runFinished(row.ok(), row.result.pipeline.committed);
        }
        if (spec.verbose)
            logSweepRow(row, item, ++completed, todo.size());
    };

    Clock::time_point start = Clock::now();
    if (pool) {
        pool->run(todo.size(),
                  [&](size_t index, unsigned) { return runSlot(index); },
                  onResult);
        const sim::FarmStats &stats = pool->stats();
        result.farm = stats;
        if (spec.verbose &&
            (stats.retries || stats.timeouts || stats.crashes ||
             stats.corruptFrames)) {
            std::fprintf(stderr,
                         "  proc pool: %llu launches, %llu crashes, %llu "
                         "timeouts, %llu corrupt frames, %llu retries, "
                         "%llu skipped\n",
                         (unsigned long long)stats.launches,
                         (unsigned long long)stats.crashes,
                         (unsigned long long)stats.timeouts,
                         (unsigned long long)stats.corruptFrames,
                         (unsigned long long)stats.retries,
                         (unsigned long long)stats.permanentFailures);
        }
    } else {
        std::atomic<double> busySeconds{0.0};
        sim::parallelFor(result.jobs, todo.size(), [&](size_t index) {
            Clock::time_point begin = Clock::now();
            sim::ProcResult outcome;
            outcome.payload = runSlot(index);
            outcome.ok = true;
            busySeconds += secondsSince(begin);
            onResult(index, outcome);
        });
        result.farm.busySeconds = busySeconds;
    }
    result.farm.wallSeconds = secondsSince(start);
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec)
{
    const RunOptions &options = spec.options;
    SweepResult result;
    result.rows.resize(spec.items.size());

    std::unique_ptr<SweepJournal> journal;
    std::vector<size_t> todo;
    size_t served = 0;
    if (!options.journal.empty()) {
        journal = std::make_unique<SweepJournal>(
            options.journal, sweepKey(spec), spec.items.size(),
            options.resume, options.faults.killAfter);
    }
    for (size_t i = 0; i < spec.items.size(); ++i) {
        if (journal && journal->has(i) &&
            decodeSweepRow(journal->payload(i), result.rows[i])) {
            ++served;
        } else {
            todo.push_back(i);
        }
    }
    if (spec.verbose && served) {
        std::fprintf(stderr,
                     "  sweep: %zu of %zu runs served from journal %s\n",
                     served, spec.items.size(),
                     journal->path().c_str());
    }

    // A sweep outside a RunSet counts its runs on a meter of its own.
    ProgressMeter *meter = spec.progress;
    std::unique_ptr<ProgressMeter> ownMeter;
    if (!meter && options.progress) {
        ownMeter = std::make_unique<ProgressMeter>(options.progressJson);
        meter = ownMeter.get();
    }
    if (meter)
        meter->addRuns(todo.size());

    runSlots(spec, todo, result, journal.get(), meter);
    result.farm.journalServed = served;
    ownMeter.reset(); // its final line and progress.json

    if (size_t n = result.failed()) {
        warn("%zu of %zu sweep runs failed and were skipped", n,
             spec.items.size());
    }
    if (spec.verbose && spec.items.size() > 1) {
        std::fprintf(stderr,
                     "  sweep: %zu runs on %u %s in %.2f s "
                     "(utilization %.0f%%)\n",
                     spec.items.size(), result.jobs,
                     options.procs ? "procs" : "jobs", result.farm.wallSeconds,
                     result.utilization() * 100.0);
    }

    // All telemetry CSVs are appended in spec order after the barrier,
    // so their row order is schedule-independent.
    std::lock_guard<std::mutex> lock(csvMutex);
    std::string speedRows;
    for (size_t i = 0; i < result.rows.size(); ++i)
        if (result.rows[i].ok())
            speedRows += simSpeedCsvLine(result.rows[i].result,
                                         spec.items[i].params);
    appendCsvAtomic(options.csvDir, "simspeed.csv", simSpeedCsvHeader,
                    speedRows);
    appendSkipCsv(spec, result);
    appendPoolCsv(spec, result);
    if (options.cpiStack)
        appendCpiStackCsv(spec, result);
    if (options.branchProfile)
        appendBranchProfileCsv(spec, result);

    // Observability outputs, rewritten (atomically) after every sweep so
    // a driver that runs several sweeps leaves them cumulative and a
    // kill mid-driver leaves the last complete version.
    if (!options.report.empty()) {
        globalReport().addSweep(spec, result);
        std::string error = globalReport().writeHtml(options.report);
        if (!error.empty())
            warn("cannot write dashboard: %s", error.c_str());
    }
    if (!options.traceEvents.empty()) {
        try {
            prof::writeTrace(options.traceEvents);
        } catch (const SimError &error) {
            warn("cannot write trace events: %s", error.what());
        }
    }
    return result;
}

RunSet::RunSet(RunOptions options) : options_(std::move(options))
{
    if (options_.progress)
        progress_ = std::make_unique<ProgressMeter>(options_.progressJson);
}

RunSet::~RunSet() = default;

RunHandle
RunSet::add(const wl::Workload &workload, const cpu::CoreParams &params,
            const std::string &label)
{
    auto [it, added] =
        handles_.try_emplace({workload.name, params.key()}, rows_.size());
    if (added) {
        auto &shared = workloads_[workload.name];
        if (!shared)
            shared = std::make_shared<const wl::Workload>(workload);
        pending_.push_back({shared, params, label});
        rows_.emplace_back();
    }
    return it->second;
}

std::vector<RunHandle>
RunSet::addEach(const std::vector<wl::Workload> &workloads,
                const cpu::CoreParams &params, const std::string &label)
{
    std::vector<RunHandle> handles;
    for (const wl::Workload &workload : workloads)
        handles.push_back(add(workload, params, label));
    return handles;
}

size_t
RunSet::run(const std::string &journal)
{
    size_t count = pending_.size();
    if (!count)
        return 0;
    SweepSpec spec(options_);
    spec.options.journal = journal;
    spec.progress = progress_.get();
    spec.items = std::move(pending_);
    pending_.clear();
    SweepResult sweep = runSweep(spec);
    std::move(sweep.rows.begin(), sweep.rows.end(), rows_.begin() + done_);
    done_ += count;
    return count;
}

bool
RunSet::ok(RunHandle handle) const
{
    panic_if(handle >= done_, "run %zu has not been simulated", handle);
    return rows_[handle].ok();
}

const sim::RunResult &
RunSet::at(RunHandle handle) const
{
    panic_if(handle >= done_, "run %zu has not been simulated", handle);
    return rows_[handle].result;
}

} // namespace pubs::bench
