/**
 * @file
 * Self-contained HTML dashboard for sweep farms.
 *
 * A ReportBuilder accumulates per-run rows (IPC, KIPS, MPKIs) and
 * farm-health counters across every runSweep() a driver performs, plus
 * an optional raw stats-JSON document (pubs_sim_cli embeds its full
 * StatRegistry). renderDashboardHtml() turns the composite data into
 * one static HTML file — all CSS and JS inline, no CDN, no fetches —
 * that renders per-workload KIPS bars, base-vs-pubs IPC speedups,
 * slice-telemetry coverage/accuracy (when the stats document carries
 * them), and the pool/retry/skip telemetry.
 *
 * The embedded data is RFC 8259-strict JSON (tests parse it back out of
 * the HTML), and the file is written atomically, so a dashboard is
 * either absent or complete.
 */

#ifndef PUBS_BENCH_COMMON_REPORT_HH
#define PUBS_BENCH_COMMON_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bench_util.hh"
#include "cpu/cpi_stack.hh"

namespace pubs::bench
{

class ReportBuilder
{
  public:
    /** One dashboard row (one sweep run or one CLI run). */
    struct Run
    {
        std::string workload;
        std::string machine;
        bool ok = false;
        uint64_t instructions = 0;
        uint64_t cycles = 0;
        double ipc = 0.0;
        double kips = 0.0;
        double branchMpki = 0.0;
        double llcMpki = 0.0;
        double unconfidentRate = 0.0;
        std::string errorKind; ///< when !ok

        /** Top-down CPI stack of the run; emitted into the data
         *  document (and rendered as a stacked bar) only when
         *  @ref hasCpi — set by runRow() under --cpi-stack. */
        bool hasCpi = false;
        std::array<uint64_t, cpu::numCpiComponents> cpi{};

        /** Top-cost static branches; filled by runRow() under
         *  --branch-profile. */
        cpu::BranchSites branches;
    };

    /** Dashboard heading; defaults to "PUBS sweep farm". */
    void setTitle(std::string title);

    /**
     * The dashboard row of one run; the CPI stack and top branches are
     * filled only when @p options asks for them (--cpi-stack,
     * --branch-profile).
     */
    static Run runRow(const SweepRow &row, const RunOptions &options);

    /** Fold one finished sweep's rows + farm counters in. */
    void addSweep(const SweepSpec &spec, const SweepResult &result);

    /** Append a single run row (pubs_sim_cli). */
    void addRun(const Run &run);

    /**
     * Embed a raw stats-JSON document (a StatRegistry::renderJson()
     * dump) under "stats". Must be valid JSON; an invalid document is
     * dropped with a warning rather than corrupting the dashboard.
     */
    void setStatsJson(std::string statsJson);

    /** The composite data document (strict JSON). */
    std::string dataJson() const;

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
    std::string title_;
    std::vector<Run> runs_;
    sim::FarmStats farm_;
    size_t sweeps_ = 0;
    unsigned jobs_ = 0;
    std::string statsJson_;
};

/**
 * Render @p dataJson (a ReportBuilder::dataJson() document) into the
 * dashboard HTML. Exposed separately so tests can feed golden data.
 */
std::string renderDashboardHtml(const std::string &dataJson);

/** The process-wide builder runSweep() feeds when --report is set. */
ReportBuilder &globalReport();

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_REPORT_HH
