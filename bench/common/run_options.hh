/**
 * @file
 * The harness settings of every bench driver and pubs_sim_cli as one
 * value, and the table-driven parser that fills it.
 *
 * Each setting is one row of a table: its command-line flag, its
 * environment variable, its type and its help line. Parsing applies
 * the defaults, then the environment, then the command line, so a flag
 * beats its env var, which beats the default. The same rows generate
 * --help. Nothing is kept in process globals: a driver parses once and
 * passes the RunOptions down inside its SweepSpec.
 */

#ifndef PUBS_BENCH_COMMON_RUN_OPTIONS_HH
#define PUBS_BENCH_COMMON_RUN_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/subprocess.hh"
#include "sim/sampling.hh"

namespace pubs::bench
{

/** Everything a sweep (or a pubs_sim_cli run) is configured by. */
struct RunOptions
{
    uint64_t insts = 1000000; ///< measured instructions per run
    uint64_t warmup = 200000; ///< warmup instructions per run
    unsigned jobs = 0;        ///< worker threads; 0 = hardware threads
    unsigned procs = 0;       ///< worker processes; 0 = use threads
    /**
     * Write-ahead journal; empty disables. bench_figures journals its
     * second sweep (the D-BP figures) at path.1.
     */
    std::string journal;
    bool resume = false;     ///< serve journaled runs of a killed sweep
    std::string traceEvents; ///< Chrome trace-event JSON; empty = off
    std::string report;      ///< HTML dashboard; empty = off
    bool progress = false;   ///< live meter + progressJson
    std::string progressJson = "progress.json";
    /**
     * Emit per-run top-down CPI stacks (cpi_stack.csv + dashboard).
     * The stack is always collected; this only gates emission, so
     * no-flag output stays byte-identical.
     */
    bool cpiStack = false;
    /**
     * Emit the per-static-branch cost profile (branch_profile.csv +
     * dashboard); forces core telemetry on for every run.
     */
    bool branchProfile = false;
    unsigned sampleWindows = 0; ///< sampled windows per run; 0 = off
    uint64_t samplePeriod = 0;  ///< insts between windows; 0 = contiguous
    std::string checkpointDir;  ///< shared checkpoint cache; empty = off
    std::string csvDir;         ///< CSV output directory; empty = off

    // The --procs worker pool (sim/proc_pool.hh).
    unsigned procTimeout = 900;   ///< seconds per attempt; 0 = no limit
    unsigned procRetries = 5;     ///< attempts per run, the first included
    unsigned procBackoffMs = 100; ///< retry delay: base << (attempt - 1)
    /**
     * Seconds a worker's pipe may stay silent under --progress; 0 = no
     * limit. Without --progress workers send no heartbeats, so silence
     * is normal and the check is off.
     */
    unsigned procStale = 30;
    proc::FaultPlan faults; ///< injected faults (common/subprocess.hh)

    /**
     * The sampling plan runs use: the measurement and warmup budgets
     * split evenly across sampleWindows. Disabled unless windows > 0.
     */
    sim::SamplePlan samplePlan() const;
};

/** How a table row's value is read. */
enum class OptionType
{
    Switch, ///< no value; an env var is on unless it is "0"
    Count,  ///< a positive integer
    Number, ///< a non-negative integer
    Text,   ///< any string
    Faults, ///< a fault-injection plan (proc::parseFaultPlan)
};

/**
 * One setting: a flag and/or an environment variable, and the variable
 * the parsed value lands in (bool for Switch, std::string for Text,
 * either integer for Count/Number, proc::FaultPlan for Faults).
 */
struct OptionRow
{
    const char *flag; ///< "--jobs"; nullptr = environment only
    const char *env;  ///< "PUBS_BENCH_JOBS"; nullptr = flag only
    OptionType type;
    const char *help;
    std::variant<bool *, unsigned *, uint64_t *, std::string *,
                 proc::FaultPlan *>
        target;
};

/** The harness table, bound to the fields of @p options. */
std::vector<OptionRow> runOptionRows(RunOptions &options);

/**
 * Apply @p rows: every set, non-empty env var first, then the flags in
 * @p argv. @p help is set by --help (parsing stops there).
 * @return "" on success, else what was wrong with the input.
 */
std::string parseOptionRows(const std::vector<OptionRow> &rows, int argc,
                            char **argv, bool &help);

/** The --help text generated from @p rows. */
std::string optionUsage(const char *argv0,
                        const std::vector<OptionRow> &rows);

/**
 * Fill @p options from the environment and command line, then check it
 * for consistency: --resume needs a journal, --sample-period and
 * --checkpoint-dir need --sample, and @p conflict, when given, names a
 * combination of flags the program would not honour ("", none).
 * @p extraRows are the program's own flags, listed before the
 * harness rows; they may point into @p options. --help prints the usage
 * on stdout and exits 0; any error prints it with the complaint on
 * stderr and exits 2. A trace-events path switches the host-phase
 * profiler on.
 */
void parseRunOptions(int argc, char **argv, RunOptions &options,
                     const std::vector<OptionRow> &extraRows,
                     const std::function<std::string()> &conflict = {});

/** The options of a driver that has no flags of its own. */
RunOptions parseRunOptions(int argc, char **argv);

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_RUN_OPTIONS_HH
