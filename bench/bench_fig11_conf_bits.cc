/**
 * @file
 * Figure 11: average D-BP speedup (bars) and unconfident-branch rate
 * (line) when varying the confidence counter width from 2 to 8 bits,
 * plus the "blind" model (every branch deemed unconfident, no conf_tab).
 * Paper: rate grows with width; optimum 6 bits at ~71% unconfident;
 * blind is worse than PUBS with the conf_tab.
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
    std::fprintf(stderr, "fig11: base machine\n");
    SweepResult base = runSuite(suite, sim::makeConfig(sim::Machine::Base),
                             options, true, "base");

    std::vector<size_t> dbp;
    for (size_t i = 0; i < suite.size(); ++i)
        if (base.ok(i) && base.at(i).branchMpki > dbpThreshold)
            dbp.push_back(i);

    // One batch over every (counter width | blind, workload) point.
    struct Point
    {
        std::string label;
        unsigned bits;
        bool useConfTab;
    };
    std::vector<Point> points;
    for (unsigned bits = 2; bits <= 8; ++bits)
        points.push_back({std::to_string(bits), bits, true});
    points.push_back({"blind", 0, false});

    SweepSpec spec(options);
    for (const Point &point : points) {
        pubs::cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.useConfTab = point.useConfTab;
        if (point.useConfTab)
            params.pubs.confCounterBits = point.bits;
        for (size_t i : dbp)
            spec.add(suite[i], params, "pubs@" + point.label + "bit");
    }
    std::fprintf(stderr, "fig11: %zu runs (widths x D-BP)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"conf_bits", "speedup", "unconfident_rate"});
    size_t index = 0;
    for (const Point &point : points) {
        std::vector<double> speedups, rates;
        for (size_t k = 0; k < dbp.size(); ++k, ++index) {
            if (!sweep.ok(index))
                continue;
            const pubs::sim::RunResult &r = sweep.at(index);
            speedups.push_back(r.speedupOver(base.at(dbp[k])));
            rates.push_back(point.useConfTab ? r.unconfidentBranchRate
                                             : 1.0);
        }
        table.addRow({point.label, pct(geoMeanRatio(speedups)),
                      num(pubs::arithmeticMean(rates), 2)});
    }

    std::printf("FIGURE 11: D-BP speedup & unconfident rate vs counter "
                "bits\n");
    std::printf("(paper: optimum 6 bits at ~71%% unconfident; blind "
                "below PUBS)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig11_conf_bits", table);
    return 0;
}
