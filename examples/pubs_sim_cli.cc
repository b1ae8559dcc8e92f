/**
 * @file
 * A command-line driver for one-off simulations: one suite workload on
 * one machine, optionally fast-forwarded, checkpointed, sampled, or
 * dumped as stats JSON / pipeview / an HTML dashboard; or, with --check
 * lockstep, every suite workload under the lockstep checker and the
 * structural auditor as one sweep (PASS/FAIL per workload).
 * `pubs_sim_cli --help` lists every flag: this driver's own rows, then
 * the harness rows it shares with the bench drivers
 * (bench/common/run_options.hh: --jobs, --procs, --progress, --report,
 * --cpi-stack, --branch-profile, --sample, ...).
 *
 * Prints the full pipeline stat group. Recoverable failures (bad
 * configuration, unknown workload, corrupt checkpoint, checker
 * divergence under --check throw) print "error: ..." and exit 1 instead
 * of aborting; so does --check lockstep when a workload fails,
 * including a worker process that fails beyond retry under --procs.
 * Malformed flags print the usage and exit 2, and so does a setting the
 * chosen mode would drop (a sweep's --jobs on a single run, say).
 */

#include <cstdio>
#include <string>
#include <utility>

#include "common/bench_util.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "common/progress.hh"
#include "common/report.hh"
#include "common/stats.hh"
#include "cpu/telemetry.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "trace/pipeview.hh"
#include "workloads/suite.hh"

namespace
{

using namespace pubs;

/**
 * The one of @p values whose @p name is @p text, so the flags take
 * exactly the names describe() and the stats print. Unknown names are
 * fatal; @p what names the kind of value in the error.
 */
template <typename Enum, size_t N>
Enum
parseName(const std::string &text, const Enum (&values)[N],
          const char *(*name)(Enum), const char *what)
{
    for (Enum value : values)
        if (text == name(value))
            return value;
    fatal("unknown %s '%s'", what, text.c_str());
}

/**
 * Run every suite workload with the lockstep checker and the structural
 * auditor set to throw, as one sweep over options.jobs threads or
 * options.procs worker processes, and print one PASS/FAIL row per
 * workload in suite order. @return the number of failing workloads.
 */
size_t
verifyLockstep(cpu::CoreParams params, const char *machine, uint64_t seed,
               const bench::RunOptions &options)
{
    params.checkPolicy = CheckPolicy::Throw;
    params.auditPolicy = CheckPolicy::Throw;
    bench::SweepSpec spec(options);
    spec.verbose = false;
    for (wl::Workload &workload : wl::makeSuite(seed))
        spec.add(std::move(workload), params, machine);
    bench::SweepResult sweep = bench::runSweep(spec);

    std::printf("%-18s %-6s %12s %12s\n", "workload", "result", "checked",
                "audits");
    for (size_t i = 0; i < sweep.rows.size(); ++i) {
        const bench::SweepRow &row = sweep.rows[i];
        const char *name = spec.items[i].workload->name.c_str();
        if (!row.ok()) {
            std::printf("%-18s %-6s\n", name, "FAIL");
            std::fprintf(stderr, "%s error in %s:\n%s\n",
                         row.errorKind.c_str(), name, row.error.c_str());
            continue;
        }
        const cpu::PipelineStats &s = row.result.pipeline;
        std::printf("%-18s %-6s %12llu %12llu\n", name, "PASS",
                    (unsigned long long)s.checkerCommits,
                    (unsigned long long)s.auditsRun);
    }
    size_t failures = sweep.failed();
    std::printf("lockstep verification: %s (%zu failing workload%s, "
                "%u %s)\n",
                failures ? "FAIL" : "PASS", failures,
                failures == 1 ? "" : "s", sweep.jobs,
                options.procs ? "procs" : "jobs");
    return failures;
}

} // namespace

int
run(int argc, char **argv)
{
    const cpu::CoreParams defaults;
    std::string workload = "sjeng_like";
    std::string machineArg = "pubs";
    std::string sizeArg = "medium";
    uint64_t seed = 1;
    unsigned priorityEntries = defaults.pubs.priorityEntries;
    unsigned confBits = defaults.pubs.confCounterBits;
    bool noModeSwitch = false;
    bool nonStall = false;
    bool distributed = false;
    std::string iqArg;
    std::string checkArg;
    unsigned auditInterval = defaults.auditInterval;
    std::string statsJsonPath;
    std::string pipeviewPath;
    bool telemetry = false;
    unsigned heartbeat = defaults.heartbeatInterval;
    uint64_t skip = 0;
    std::string saveCkptPath;
    std::string restoreCkptPath;
    bool list = false;

    bench::RunOptions options;
    using T = bench::OptionType;
    bench::parseRunOptions(argc, argv, options, {
        {"--workload", nullptr, T::Text,
         "suite workload (default sjeng_like; --list names them)",
         &workload},
        {"--machine", nullptr, T::Text,
         "base, pubs, age or pubs+age (default pubs)", &machineArg},
        {"--size", nullptr, T::Text,
         "small, medium, large or huge (default medium)", &sizeArg},
        {"--insts", nullptr, T::Count,
         "measured instructions (default 1000000)", &options.insts},
        {"--warmup", nullptr, T::Number,
         "warmup instructions (default 200000)", &options.warmup},
        {"--seed", nullptr, T::Number,
         "workload and machine seed (default 1)", &seed},
        {"--priority-entries", nullptr, T::Number, "PUBS partition size",
         &priorityEntries},
        {"--conf-bits", nullptr, T::Number, "confidence counter width",
         &confBits},
        {"--no-mode-switch", nullptr, T::Switch,
         "disable the LLC-MPKI mode switch", &noModeSwitch},
        {"--non-stall", nullptr, T::Switch, "non-stall dispatch policy",
         &nonStall},
        {"--distributed-iq", nullptr, T::Switch,
         "Section III-C2 distributed IQ", &distributed},
        {"--iq", nullptr, T::Text, "random, shifting or circular",
         &iqArg},
        {"--check", nullptr, T::Text,
         "checker + audit policy: off, warn, throw or abort; lockstep "
         "verifies every suite workload (PASS/FAIL per workload)",
         &checkArg},
        {"--audit-interval", nullptr, T::Number,
         "cycles between structural audits", &auditInterval},
        {"--stats-json", nullptr, T::Text,
         "write the full stat registry as JSON (implies --telemetry)",
         &statsJsonPath},
        {"--pipeview", nullptr, T::Text,
         "write a gem5-O3PipeView pipeline trace (view with Konata)",
         &pipeviewPath},
        {"--telemetry", nullptr, T::Switch,
         "collect PUBS slice telemetry and the branch-site profile",
         &telemetry},
        {"--heartbeat", nullptr, T::Number,
         "heartbeat interval in cycles (0 disables)", &heartbeat},
        {"--skip", nullptr, T::Number,
         "functionally fast-forward N instructions before the run",
         &skip},
        {"--save-checkpoint", nullptr, T::Text,
         "fast-forward (--skip), write a checkpoint, and exit",
         &saveCkptPath},
        {"--restore-checkpoint", nullptr, T::Text,
         "start from a checkpoint instead of from reset",
         &restoreCkptPath},
        {"--list", nullptr, T::Switch, "list suite workloads and exit",
         &list},
    }, [&]() -> std::string {
        // The lockstep sweep and the sampled run are not one Simulator,
        // and only the lockstep sweep is a sweep: the flags below would
        // be dropped, so they are refused.
        const bool lockstep = checkArg == "lockstep";
        const bool sampled = !lockstep && options.sampleWindows;
        const bool single = !lockstep && !sampled;
        const std::pair<bool, const char *> ignored[] = {
            {!single && !pipeviewPath.empty(), "--pipeview"},
            {!single && skip != 0, "--skip"},
            {!single && !saveCkptPath.empty(), "--save-checkpoint"},
            {!single && !restoreCkptPath.empty(), "--restore-checkpoint"},
            {lockstep && !statsJsonPath.empty(), "--stats-json"},
            {sampled && !options.report.empty(), "--report"},
            {sampled && options.progress, "--progress"},
            {sampled && options.branchProfile, "--branch-profile"},
            {sampled && telemetry, "--telemetry"},
            {!lockstep && options.jobs, "--jobs"},
            {!lockstep && options.procs, "--procs"},
            {!lockstep && !options.journal.empty(), "--journal"},
            {!lockstep && !options.csvDir.empty(), "PUBS_BENCH_CSV"},
            {!lockstep && options.faults.any(), "PUBS_FAULT"},
        };
        for (const auto &[set, flag] : ignored) {
            if (set) {
                return std::string(flag) + " does not apply to " +
                       (lockstep  ? "--check lockstep"
                        : sampled ? "--sample"
                                  : "a single run");
            }
        }
        return "";
    });
    if (list) {
        for (const auto &name : wl::suiteNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    // The dashboard and the stats/branch profile dumps read telemetry.
    telemetry = telemetry || !statsJsonPath.empty() ||
                !options.report.empty() || options.branchProfile;

    sim::Machine machine = parseName(
        machineArg,
        {sim::Machine::Base, sim::Machine::Pubs, sim::Machine::Age,
         sim::Machine::PubsAge},
        sim::machineName, "machine");
    cpu::SizeClass size = parseName(
        sizeArg,
        {cpu::SizeClass::Small, cpu::SizeClass::Medium,
         cpu::SizeClass::Large, cpu::SizeClass::Huge},
        cpu::sizeClassName, "size class");
    const uint64_t insts = options.insts;
    const uint64_t warmup = options.warmup;
    cpu::CoreParams params = sim::makeConfig(machine, size);
    params.seed = seed;
    params.pubs.priorityEntries = priorityEntries;
    params.pubs.confCounterBits = confBits;
    if (noModeSwitch)
        params.pubs.modeSwitch = false;
    if (nonStall)
        params.pubs.stallPolicy = false;
    if (distributed)
        params.distributedIq = true;
    if (!iqArg.empty()) {
        params.iqKind = parseName(iqArg,
                                  {iq::IqKind::Random, iq::IqKind::Shifting,
                                   iq::IqKind::Circular},
                                  iq::iqKindName, "IQ kind");
    }
    params.auditInterval = auditInterval;
    params.telemetry = telemetry;
    params.heartbeatInterval = heartbeat;

    const std::string &tracePath = options.traceEvents;
    auto writeTraceIfAsked = [&]() {
        if (tracePath.empty())
            return;
        prof::writeTrace(tracePath);
        std::printf("trace events written to %s (open in Perfetto)\n",
                    tracePath.c_str());
    };

    if (checkArg == "lockstep") {
        size_t failures = verifyLockstep(
            params, sim::machineName(machine), seed, options);
        writeTraceIfAsked();
        return failures ? 1 : 0;
    }
    if (!checkArg.empty()) {
        CheckPolicy policy;
        if (!parseCheckPolicy(checkArg, policy)) {
            fatal("unknown check policy '%s' (want off, warn, throw, "
                  "abort, or lockstep)", checkArg.c_str());
        }
        params.checkPolicy = policy;
        params.auditPolicy = policy;
    }

    std::printf("machine: %s (%s)\n%s\n", sim::machineName(machine),
                cpu::sizeClassName(size), params.describe().c_str());

    wl::Workload w = wl::makeWorkload(workload, seed);
    if (options.sampleWindows) {
        sim::SamplePlan plan = options.samplePlan();
        const std::string &checkpointDir = options.checkpointDir;
        sim::CheckpointStore store(checkpointDir);
        sim::RunResult result = sim::simulateSampled(
            params, w.program, plan,
            checkpointDir.empty() ? nullptr : &store,
            sim::machineName(machine));
        std::printf("sampled run: %s (%u windows, %llu insts "
                    "fast-forwarded)\n",
                    plan.describe().c_str(), result.windows,
                    (unsigned long long)result.skippedInsts);
        std::printf("ipc: %.4f +/- %.4f (95%% CI)\n", result.ipc,
                    result.ipcCi95);
        std::printf("branch MPKI: %.3f +/- %.3f\n", result.branchMpki,
                    result.branchMpkiCi95);
        std::printf("LLC MPKI: %.3f +/- %.3f\n", result.llcMpki,
                    result.llcMpkiCi95);
        std::printf("host speed: %.2f s, %.1f KIPS\n", result.simSeconds,
                    result.kips());
        if (options.cpiStack) {
            std::printf("%s",
                        result.pipeline.cpi.format(result.instructions)
                            .c_str());
        }
        if (!checkpointDir.empty()) {
            std::printf("checkpoint cache: %s\n", checkpointDir.c_str());
        }
        if (!statsJsonPath.empty()) {
            StatRegistry registry;
            StatGroup &run = registry.group("run");
            run.addString("workload", workload);
            run.addString("machine", sim::machineName(machine));
            run.addString("size", cpu::sizeClassName(size));
            run.add("instructions", (double)result.instructions);
            run.add("sampled", 1.0);
            run.add("windows", (double)result.windows);
            run.add("skipped_insts", (double)result.skippedInsts);
            run.add("ipc", result.ipc);
            run.add("ipc_ci95", result.ipcCi95,
                    "95% confidence half-width on ipc");
            run.add("branch_mpki", result.branchMpki);
            run.add("branch_mpki_ci95", result.branchMpkiCi95,
                    "95% confidence half-width on branch_mpki");
            run.add("llc_mpki", result.llcMpki);
            run.add("llc_mpki_ci95", result.llcMpkiCi95,
                    "95% confidence half-width on llc_mpki");
            run.add("sim_seconds", result.simSeconds);
            registry.writeJson(statsJsonPath);
            std::printf("stats written to %s\n", statsJsonPath.c_str());
        }
        writeTraceIfAsked();
        return 0;
    }

    sim::Simulator simulator(params, w.program);
    if (!restoreCkptPath.empty()) {
        simulator.restoreCheckpointFile(restoreCkptPath);
        std::printf("checkpoint restored from %s (%llu insts "
                    "fast-forwarded)\n",
                    restoreCkptPath.c_str(),
                    (unsigned long long)simulator.fastForwarded());
    } else if (skip) {
        uint64_t consumed = simulator.fastForward(skip);
        if (consumed < skip) {
            fatal("program ended after %llu of %llu skipped instructions",
                  (unsigned long long)consumed, (unsigned long long)skip);
        }
        std::printf("fast-forwarded %llu instructions\n",
                    (unsigned long long)consumed);
    }
    if (!saveCkptPath.empty()) {
        simulator.saveCheckpointFile(saveCkptPath,
                                     sim::machineName(machine));
        std::printf("checkpoint written to %s\n", saveCkptPath.c_str());
        writeTraceIfAsked();
        return 0;
    }
    if (!pipeviewPath.empty()) {
        simulator.pipeline().attachPipeView(
            std::make_unique<trace::PipeViewWriter>(pipeviewPath));
    }
    std::unique_ptr<progress::Meter> meter;
    if (options.progress) {
        progress::Meter::Config mc;
        mc.totalRuns = 1;
        mc.jsonPath = options.progressJson;
        meter = std::make_unique<progress::Meter>(mc);
        progress::setCallbackSink(
            [&meter](const progress::Sample &s) { meter->update(s); });
        progress::beginTask(0, workload, warmup + insts);
    }
    sim::RunResult result = simulator.run(warmup, insts);
    if (meter) {
        progress::endTask();
        progress::clearSink();
        meter->runFinished(0, true);
        meter->finish();
    }

    StatGroup group(workload);
    simulator.pipeline().fillStats(group);
    std::printf("%s", group.format().c_str());
    std::printf("host speed: %.2f s, %.1f KIPS\n", result.simSeconds,
                result.kips());

    if (options.cpiStack) {
        std::printf("%s",
                    result.pipeline.cpi.format(result.instructions)
                        .c_str());
    }
    if (const cpu::CoreTelemetry *t = simulator.pipeline().telemetry())
        std::printf("%s", t->formatBranchProfile().c_str());

    if (!statsJsonPath.empty() || !options.report.empty()) {
        StatRegistry registry;
        StatGroup &run = registry.group("run");
        run.addString("workload", workload);
        run.addString("machine", sim::machineName(machine));
        run.addString("size", cpu::sizeClassName(size));
        run.add("instructions", (double)result.instructions);
        run.add("warmup_instructions", (double)warmup);
        run.add("seed", (double)seed);
        run.add("sim_seconds", result.simSeconds,
                "host wall-clock of the measurement phase");
        run.add("kips", result.kips(),
                "kilo-instructions committed per host second");
        simulator.pipeline().fillRegistry(registry);
        if (!statsJsonPath.empty()) {
            registry.writeJson(statsJsonPath);
            std::printf("stats written to %s\n", statsJsonPath.c_str());
        }
        if (!options.report.empty()) {
            bench::ReportBuilder report;
            report.setTitle("pubs_sim_cli: " + workload + " on " +
                            sim::machineName(machine));
            bench::SweepRow row;
            row.result = result;
            row.result.workload = workload;
            row.result.machine = sim::machineName(machine);
            report.addRun(bench::ReportBuilder::runRow(row, options));
            report.setStats(registry);
            std::string error = report.writeHtml(options.report);
            if (!error.empty()) {
                warn("cannot write dashboard %s: %s",
                     options.report.c_str(), error.c_str());
            } else {
                std::printf("dashboard written to %s\n",
                            options.report.c_str());
            }
        }
    }
    if (const trace::PipeViewWriter *pv = simulator.pipeline().pipeView()) {
        std::printf("pipeview trace: %s (%llu records; open with Konata)\n",
                    pv->path().c_str(),
                    (unsigned long long)pv->records());
    }
    writeTraceIfAsked();
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
