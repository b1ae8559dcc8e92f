/**
 * @file
 * Figure 15 / Section V-G: PUBS vs the age matrix.
 *
 * (a) IPC increase over the base for PUBS, AGE and PUBS+AGE. Paper
 *     (D-BP geomeans): PUBS +7.8%, AGE +6.5%, PUBS+AGE +10.2%; in E-BP
 *     the age matrix is slightly ahead of PUBS.
 * (b) *Performance* of PUBS relative to AGE when the age matrix's 13%
 *     IQ-delay increase lengthens the clock: PUBS ahead by ~11.1%.
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "iq/delay_model.hh"
#include "sim/config.hh"

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace sim = pubs::sim;
    namespace wl = pubs::wl;

    RunOptions options = parseRunOptions(argc, argv);

    auto suite = wl::makeSuite();
    const sim::Machine machines[4] = {
        sim::Machine::Base, sim::Machine::Pubs, sim::Machine::Age,
        sim::Machine::PubsAge};

    // One batch: the whole suite on all four machines.
    SweepSpec spec(options);
    for (int m = 0; m < 4; ++m)
        for (const auto &workload : suite)
            spec.add(workload, sim::makeConfig(machines[m]),
                     sim::machineName(machines[m]));
    std::fprintf(stderr, "fig15: %zu runs (4 machines)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);
    auto at = [&](int m, size_t i) -> const sim::RunResult & {
        return sweep.at((size_t)m * suite.size() + i);
    };

    pubs::iq::DelayModel delay;

    TextTable table({"workload", "class", "PUBS", "AGE", "PUBS+AGE",
                     "PUBS_vs_AGE_perf"});
    std::vector<double> dbpRatios[3], ebpRatios[3];
    std::vector<double> dbpPerf, ebpPerf;
    for (size_t i = 0; i < suite.size(); ++i) {
        bool allOk = true;
        for (int m = 0; m < 4; ++m)
            allOk = allOk && sweep.ok((size_t)m * suite.size() + i);
        if (!allOk)
            continue;
        const sim::RunResult &base = at(0, i);
        bool hard = base.branchMpki > dbpThreshold;
        double ratio[3];
        for (int m = 1; m < 4; ++m) {
            ratio[m - 1] = at(m, i).speedupOver(base);
            (hard ? dbpRatios : ebpRatios)[m - 1].push_back(ratio[m - 1]);
        }
        // Fig 15(b): performance = IPC / cycle time.
        double perf = delay.performance(at(1, i).ipc, false) /
                      delay.performance(at(2, i).ipc, true);
        (hard ? dbpPerf : ebpPerf).push_back(perf);
        table.addRow({suite[i].name, hard ? "D-BP" : "E-BP",
                      pct(ratio[0]), pct(ratio[1]), pct(ratio[2]),
                      pct(perf)});
    }
    table.addRow({"GM diff", "D-BP", pct(geoMeanRatio(dbpRatios[0])),
                  pct(geoMeanRatio(dbpRatios[1])),
                  pct(geoMeanRatio(dbpRatios[2])),
                  pct(geoMeanRatio(dbpPerf))});
    table.addRow({"GM easy", "E-BP", pct(geoMeanRatio(ebpRatios[0])),
                  pct(geoMeanRatio(ebpRatios[1])),
                  pct(geoMeanRatio(ebpRatios[2])),
                  pct(geoMeanRatio(ebpPerf))});

    std::printf("FIGURE 15(a): IPC increase over base; (b) last column: "
                "PUBS performance over AGE with the age matrix's +13%% "
                "cycle time\n");
    std::printf("(paper D-BP GMs: PUBS +7.8%%, AGE +6.5%%, PUBS+AGE "
                "+10.2%%; PUBS over AGE in performance: +11.1%%)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig15_age_matrix", table);
    return 0;
}
