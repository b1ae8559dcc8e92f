/**
 * @file
 * Self-contained HTML dashboard for sweep farms.
 *
 * A ReportBuilder keeps the rows of every runSweep() a driver performs
 * (or pubs_sim_cli's one run) with the farm-health counters, plus
 * optionally a run's full StatRegistry (pubs_sim_cli embeds its own).
 * A run's data object is its SweepRow::jsonMembers() plus "kips" and
 * the "cpi" stack and "branches" sites the options asked for. html()
 * renders one static page — all CSS and JS inline, no CDN, no fetches
 * — with per-workload KIPS bars, base-vs-pubs IPC speedups, CPI stacks,
 * the top branch sites, slice-telemetry coverage/accuracy (when the
 * stats document carries them), and the pool/retry/skip telemetry.
 *
 * The embedded data is RFC 8259-strict JSON (tests parse it back out of
 * the HTML), and the file is written atomically, so a dashboard is
 * either absent or complete.
 */

#ifndef PUBS_BENCH_COMMON_REPORT_HH
#define PUBS_BENCH_COMMON_REPORT_HH

#include <string>
#include <vector>

#include "common/bench_util.hh"
#include "common/stats.hh"

namespace pubs::bench
{

class ReportBuilder
{
  public:
    /** Dashboard heading; defaults to "PUBS sweep farm". */
    void setTitle(std::string title);

    /**
     * Fold one finished sweep's rows + farm counters in; its options'
     * --cpi-stack and --branch-profile add those blocks to the rows.
     */
    void addSweep(const SweepSpec &spec, const SweepResult &result);

    /** Append a single run's row under @p options (pubs_sim_cli). */
    void addRun(const SweepRow &row, const RunOptions &options);

    /** Embed @p stats (StatRegistry::renderJson()) under "stats". */
    void setStats(const StatRegistry &stats);

    /** The full self-contained dashboard HTML. */
    std::string html() const;

    /**
     * Atomically write html() to @p path.
     * @return empty on success, error text otherwise.
     */
    std::string writeHtml(const std::string &path) const;

    /** Drop all accumulated state (tests). */
    void clear();

  private:
    /** The composite data document (strict JSON). */
    std::string dataJson() const;

    std::string title_;
    std::vector<SweepRow> rows_;
    bool cpiStack_ = false;      ///< some rows' options asked for it
    bool branchProfile_ = false; ///< likewise
    sim::FarmStats farm_;
    size_t sweeps_ = 0;
    unsigned jobs_ = 0;
    std::string statsJson_;
};

/** The process-wide builder runSweep() feeds when --report is set. */
ReportBuilder &globalReport();

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_REPORT_HH
