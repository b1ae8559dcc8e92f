/**
 * @file
 * Shared benchmark-harness utilities: aligned text tables in the style
 * of the paper's figures, optional CSV emission (PUBS_BENCH_CSV=<dir>),
 * the parallel sweep engine, and the deduplicated run set the figure
 * driver plans into. Budgets, worker counts and outputs come from one
 * RunOptions value (run_options.hh) carried by each SweepSpec.
 *
 * Determinism contract of the sweep engine: each run is an independent
 * Simulator seeded entirely from its SweepItem (params.seed + the
 * pre-built workload program), results land in spec order regardless of
 * scheduling, and the aggregated output (SweepResult::statsJson(), the
 * per-figure tables, skipped.csv) carries no host-clock fields — so a
 * sweep is byte-identical at any --jobs count, including --jobs 1.
 * Host-speed telemetry (simspeed.csv, pool utilization) is appended in
 * spec order too, but its wall-clock columns are inherently
 * host-dependent and excluded from the contract.
 *
 * Fault isolation: --procs N (or PUBS_BENCH_PROCS) moves each run into
 * its own forked worker process (sim/proc_pool.hh) — a segfaulting or
 * hanging run is retried with backoff and at worst becomes a skip row,
 * never a dead sweep — and the slot-indexed aggregation keeps the
 * determinism contract across the process boundary. --journal PATH
 * write-ahead-journals every completed run (sweep_journal.hh);
 * --resume serves journaled slots of an interrupted sweep so the rerun
 * is byte-identical to an uninterrupted one. All CSV/JSON emission goes
 * through atomic temp-file + rename (common/atomic_file.hh), so no
 * output is ever observable half-written.
 */

#ifndef PUBS_BENCH_COMMON_BENCH_UTIL_HH
#define PUBS_BENCH_COMMON_BENCH_UTIL_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/run_options.hh"
#include "sim/proc_pool.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::bench
{

/** The paper's D-BP threshold: branch MPKI > 3.0 on the base machine. */
constexpr double dbpThreshold = 3.0;

/** The paper's memory-intensity threshold: LLC MPKI > 1.0. */
constexpr double memIntensityThreshold = 1.0;

/** Simple aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string str() const;

    const std::vector<std::string> &header() const { return header_; }
    const std::vector<std::vector<std::string>> &rows() const
        { return rows_; }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a ratio as a percentage delta, e.g. 1.078 -> "+7.8%". */
std::string pct(double ratio);

/** Format a double with @p digits decimals. */
std::string num(double value, int digits = 3);

enum class Mean
{
    Geometric,
    Arithmetic,
};

/**
 * A table cell holding the @p mean of @p values: pct() of it, or num()
 * with @p digits when digits >= 0. An empty set prints "n/a", so a
 * figure whose runs all failed still prints every row.
 */
std::string meanCell(const std::vector<double> &values,
                     Mean mean = Mean::Geometric, int digits = -1);

/**
 * Write the table as CSV into <options.csvDir>/<benchName>.csv if a CSV
 * directory is set. Returns true if written.
 */
bool maybeWriteCsv(const RunOptions &options, const std::string &benchName,
                   const TextTable &table);

// --- parallel sweep engine -------------------------------------------

class ProgressMeter;

/** One independent run: a workload on a machine configuration. */
struct SweepItem
{
    /** Shared, so the many runs of one program hold one copy. */
    std::shared_ptr<const wl::Workload> workload;
    cpu::CoreParams params;
    /** Label recorded as RunResult::machine and in CSV/JSON output. */
    std::string machine;
};

/** A batch of independent runs plus the options they share. */
struct SweepSpec
{
    SweepSpec() = default;
    explicit SweepSpec(RunOptions runOptions)
        : options(std::move(runOptions))
    {
    }

    RunOptions options; ///< budgets, workers, journal, outputs
    std::vector<SweepItem> items;
    bool verbose = true;
    /** A driver's meter (RunSet's); null: the sweep makes its own. */
    ProgressMeter *progress = nullptr;

    /** Append one run; @return its index (== result slot). */
    size_t add(wl::Workload workload, cpu::CoreParams params,
               std::string machine);
};

/** Outcome of one sweep item (index-aligned with the spec). */
struct SweepRow
{
    sim::RunResult result;
    std::string error;     ///< empty = ran clean
    std::string errorKind; ///< SimError kind name when failed
    /**
     * Simulation phase the failure escaped from ("fastforward",
     * "warmup", "measure", "checkpoint_io"; empty when the run never
     * entered a phase or ran clean) — so skipped.csv distinguishes a
     * fast-forward fault from a measurement fault.
     */
    std::string phase;

    bool ok() const { return error.empty(); }

    /**
     * The members of this row's JSON object, without its braces: the
     * labels and "ok", then the run's numbers (with its sampling fields
     * when sampled) or its failure. Only deterministic fields, so the
     * text is the same at any job or process count. statsJson() and
     * the dashboard both render a row through it.
     */
    std::string jsonMembers() const;
};

/** Deterministically aggregated results of one sweep. */
struct SweepResult
{
    /** Index-aligned with SweepSpec::items, independent of schedule. */
    std::vector<SweepRow> rows;

    unsigned jobs = 1; ///< worker threads actually used
    /**
     * Wall clock of the whole sweep, summed per-run time and, for a
     * --procs sweep, the recovery counters (zero for threads).
     */
    sim::FarmStats farm;

    /** Fraction of thread-seconds spent simulating. */
    double
    utilization() const
    {
        double capacity = farm.wallSeconds * (double)jobs;
        return capacity > 0.0 ? farm.busySeconds / capacity : 0.0;
    }

    size_t
    failed() const
    {
        size_t n = 0;
        for (const SweepRow &row : rows)
            n += row.ok() ? 0 : 1;
        return n;
    }

    bool ok(size_t index) const { return rows[index].ok(); }
    const sim::RunResult &at(size_t i) const { return rows[i].result; }

    /**
     * The whole sweep as one JSON object: a count of its runs and
     * failures and each row's SweepRow::jsonMembers(), so it is
     * byte-identical at any job count.
     */
    std::string statsJson() const;
};

/**
 * Run every item of @p spec on spec.options.jobs threads (parallelFor)
 * or, when spec.options.procs is set, on that many fault-isolated
 * worker processes with per-run timeout, retry, and
 * skip-after-N-failures. Either way each run's encoded row goes through
 * one hook that decodes, journals, and reports it. An item that throws
 * SimError is recorded as a skipped row (and in skipped.csv) without
 * sinking the batch, and a worker process that crashes or hangs beyond
 * retry becomes a "proc" skip row the same way; any other exception
 * from an in-process run is rethrown here. Host-speed rows go to
 * simspeed.csv and pool utilization to sweep_pool.csv, all in spec
 * order. With a journal configured, completed runs are write-ahead
 * journaled and --resume serves them back byte-identically after an
 * interruption.
 */
SweepResult runSweep(const SweepSpec &spec);

/** One distinct run of a RunSet. */
using RunHandle = size_t;

/**
 * Runs deduplicated across the figures that plan them, simulated in
 * steps. A run is its workload name and machine key (CoreParams::key(),
 * as the journal keys rows), so a name must stand for one program;
 * adding a run again returns the same handle, and the run keeps its
 * first label. run() sweeps the runs added since
 * the previous step as one runSweep, so a planner that needs earlier
 * results plans after a step, and its adds of runs that already ran are
 * not simulated again. Under --progress every step counts on one meter,
 * which prints its last line when the set is destroyed.
 */
class RunSet
{
  public:
    explicit RunSet(RunOptions options);
    ~RunSet();

    RunHandle add(const wl::Workload &workload, const cpu::CoreParams &params,
                  const std::string &label);

    /** add() each of @p workloads; @return their handles, in order. */
    std::vector<RunHandle> addEach(const std::vector<wl::Workload> &workloads,
                                   const cpu::CoreParams &params,
                                   const std::string &label);

    /**
     * Sweep the runs added since the last step, journaled at @p journal
     * (empty: none); no new runs, no sweep. @return the runs simulated.
     */
    size_t run(const std::string &journal);

    /** A run's outcome; its step must have run. */
    bool ok(RunHandle handle) const;
    const sim::RunResult &at(RunHandle handle) const;

    const RunOptions &options() const { return options_; }

  private:
    RunOptions options_;
    std::map<std::pair<std::string, std::string>, RunHandle> handles_;
    /** One copy of each program, by workload name. */
    std::map<std::string, std::shared_ptr<const wl::Workload>> workloads_;
    std::vector<SweepItem> pending_; ///< handle = done_ + index
    std::vector<SweepRow> rows_;     ///< by handle; set below done_
    size_t done_ = 0;
    std::unique_ptr<ProgressMeter> progress_; ///< under options_.progress
};

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_BENCH_UTIL_HH
