/**
 * @file
 * Figure 10: average speedup over the base in D-BP when varying the
 * number of priority entries, for both dispatch policies. Paper: with
 * the stall policy, 2 entries degrade below the base, the optimum is 6;
 * the non-stall policy is consistently weaker.
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

    auto suite = wl::makeSuite();
    std::fprintf(stderr, "fig10: base machine\n");
    SweepResult base = runSuite(suite, sim::makeConfig(sim::Machine::Base),
                             options, true, "base");

    // D-BP subset (classified on the base machine).
    std::vector<size_t> dbp;
    for (size_t i = 0; i < suite.size(); ++i)
        if (base.ok(i) && base.at(i).branchMpki > dbpThreshold)
            dbp.push_back(i);

    // One batch over every (entry count, policy, workload) point.
    const unsigned entryCounts[] = {2, 4, 6, 8, 10, 12};
    SweepSpec spec(options);
    for (unsigned entries : entryCounts) {
        for (bool stallPolicy : {true, false}) {
            pubs::cpu::CoreParams params =
                sim::makeConfig(sim::Machine::Pubs);
            params.pubs.priorityEntries = entries;
            params.pubs.stallPolicy = stallPolicy;
            std::string label = "pubs@" + std::to_string(entries) +
                                (stallPolicy ? "/stall" : "/non-stall");
            for (size_t i : dbp)
                spec.add(suite[i], params, label);
        }
    }
    std::fprintf(stderr, "fig10: %zu runs (entries x policy x D-BP)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"priority_entries", "stall", "non-stall"});
    size_t index = 0;
    for (unsigned entries : entryCounts) {
        std::vector<double> stall, nonStall;
        for (bool stallPolicy : {true, false}) {
            for (size_t k = 0; k < dbp.size(); ++k, ++index) {
                if (!sweep.ok(index))
                    continue;
                (stallPolicy ? stall : nonStall)
                    .push_back(sweep.at(index).speedupOver(
                        base.at(dbp[k])));
            }
        }
        table.addRow({std::to_string(entries),
                      pct(geoMeanRatio(stall)),
                      pct(geoMeanRatio(nonStall))});
    }

    std::printf("FIGURE 10: D-BP geomean speedup vs #priority entries\n");
    std::printf("(paper: stall@2 below base; optimum 6; stall beats "
                "non-stall)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig10_priority_entries", table);
    return 0;
}
