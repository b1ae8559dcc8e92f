/**
 * @file
 * Figure 8: speedup of PUBS over the base machine, per workload.
 *
 * The paper reports per-program bars for the D-BP programs (branch MPKI
 * > 3.0 on the base machine), "GM diff" (their geometric mean), and
 * "GM easy" (geometric mean of the E-BP programs). Paper results:
 * GM diff +7.8%, max +19.2% (sjeng), min +0.3% (mcf); GM easy ~ 0.
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "sim/config.hh"

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace sim = pubs::sim;
    namespace wl = pubs::wl;

    RunOptions options = parseRunOptions(argc, argv);

    // One batch: the whole suite on both machines, scheduled across the
    // pool at once so slow and fast workloads interleave.
    auto suite = wl::makeSuite();
    SweepSpec spec(options);
    for (const auto &workload : suite)
        spec.add(workload, sim::makeConfig(sim::Machine::Base), "base");
    for (const auto &workload : suite)
        spec.add(workload, sim::makeConfig(sim::Machine::Pubs), "pubs");
    std::fprintf(stderr, "fig8: %zu runs (base + PUBS)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"workload", "class", "branch_mpki", "llc_mpki",
                     "base_ipc", "pubs_ipc", "speedup"});
    std::vector<double> dbp;
    std::vector<double> ebp;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (!sweep.ok(i) || !sweep.ok(suite.size() + i))
            continue;
        const sim::RunResult &b = sweep.at(i);
        const sim::RunResult &p = sweep.at(suite.size() + i);
        bool hard = b.branchMpki > dbpThreshold;
        double speedup = p.speedupOver(b);
        (hard ? dbp : ebp).push_back(speedup);
        table.addRow({suite[i].name, hard ? "D-BP" : "E-BP",
                      num(b.branchMpki, 1), num(b.llcMpki, 1),
                      num(b.ipc), num(p.ipc), pct(speedup)});
    }
    table.addRow({"GM diff", "D-BP", "", "", "", "",
                  dbp.empty() ? "n/a" : pct(geoMeanRatio(dbp))});
    table.addRow({"GM easy", "E-BP", "", "", "", "",
                  ebp.empty() ? "n/a" : pct(geoMeanRatio(ebp))});

    std::printf("FIGURE 8: speedup of PUBS over the base\n");
    std::printf("(paper: GM diff +7.8%%, max +19.2%% sjeng, min +0.3%% "
                "mcf, GM easy ~0%%)\n\n%s", table.str().c_str());
    maybeWriteCsv(options, "fig8_speedup", table);
    return 0;
}
