/**
 * @file
 * Figure 12: per-workload speedup with the mode switch enabled vs
 * disabled. Paper: most programs are indifferent, but the memory-bound
 * mcf and soplex degrade when the switch is disabled (PUBS's reserved
 * entries then cost MLP when the IQ capacity matters most).
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
    std::fprintf(stderr, "fig12: base machine\n");
    SweepResult base = runSuite(suite, sim::makeConfig(sim::Machine::Base),
                             options, true, "base");

    std::vector<size_t> dbp;
    for (size_t i = 0; i < suite.size(); ++i)
        if (base.ok(i) && base.at(i).branchMpki > dbpThreshold)
            dbp.push_back(i);

    pubs::cpu::CoreParams withSwitch = sim::makeConfig(sim::Machine::Pubs);
    pubs::cpu::CoreParams noSwitch = sim::makeConfig(sim::Machine::Pubs);
    noSwitch.pubs.modeSwitch = false;

    // One batch: each D-BP workload with the switch on and off.
    SweepSpec spec(options);
    for (size_t i : dbp) {
        spec.add(suite[i], withSwitch, "pubs/switch-on");
        spec.add(suite[i], noSwitch, "pubs/switch-off");
    }
    std::fprintf(stderr, "fig12: %zu runs (switch on/off x D-BP)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"workload", "llc_mpki", "switch_on", "switch_off",
                     "pubs_on_fraction"});
    std::vector<double> onRatios, offRatios;
    for (size_t k = 0; k < dbp.size(); ++k) {
        if (!sweep.ok(2 * k) || !sweep.ok(2 * k + 1))
            continue;
        size_t i = dbp[k];
        const pubs::sim::RunResult &on = sweep.at(2 * k);
        const pubs::sim::RunResult &off = sweep.at(2 * k + 1);
        double sOn = on.speedupOver(base.at(i));
        double sOff = off.speedupOver(base.at(i));
        onRatios.push_back(sOn);
        offRatios.push_back(sOff);
        table.addRow({suite[i].name, num(base.at(i).llcMpki, 1),
                      pct(sOn), pct(sOff),
                      num(on.pubsEnabledFraction, 2)});
    }
    table.addRow({"GM diff", "", pct(geoMeanRatio(onRatios)),
                  pct(geoMeanRatio(offRatios)), ""});

    std::printf("FIGURE 12: speedup with mode switch enabled/disabled "
                "(D-BP)\n");
    std::printf("(paper: mcf and soplex degrade when the switch is "
                "off)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig12_mode_switch", table);
    return 0;
}
