/**
 * @file
 * Figure 13 / Section V-F: is PUBS worth its 4 KB, or should the budget
 * buy a bigger branch predictor? Compares PUBS (default perceptron)
 * against the base machine with the enlarged perceptron (36-bit history,
 * 512-entry weight table — more than double the default predictor's
 * cost). Paper: the bigger predictor helps only marginally; PUBS wins.
 */

#include <cstdio>

#include "branch/predictor.hh"
#include "common/bench_util.hh"
#include "sim/config.hh"

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace sim = pubs::sim;
    namespace wl = pubs::wl;
    namespace branch = pubs::branch;

    RunOptions options = parseRunOptions(argc, argv);

    auto defaultBp =
        branch::makePredictor(branch::PredictorKind::Perceptron);
    auto largeBp =
        branch::makePredictor(branch::PredictorKind::PerceptronLarge);
    std::printf("predictor cost: default %.2f KB, enlarged %.2f KB "
                "(+%.2f KB; PUBS costs 4.0 KB)\n\n",
                defaultBp->costKB(), largeBp->costKB(),
                largeBp->costKB() - defaultBp->costKB());

    auto suite = wl::makeSuite();
    std::fprintf(stderr, "fig13: base machine\n");
    SweepResult base = runSuite(suite, sim::makeConfig(sim::Machine::Base),
                             options, true, "base");

    std::vector<size_t> dbp;
    for (size_t i = 0; i < suite.size(); ++i)
        if (base.ok(i) && base.at(i).branchMpki > dbpThreshold)
            dbp.push_back(i);

    pubs::cpu::CoreParams pubsCfg = sim::makeConfig(sim::Machine::Pubs);
    pubs::cpu::CoreParams bigBpCfg = sim::makeConfig(sim::Machine::Base);
    bigBpCfg.predictor = branch::PredictorKind::PerceptronLarge;

    // One batch: each D-BP workload under PUBS and the big predictor.
    SweepSpec spec(options);
    for (size_t i : dbp) {
        spec.add(suite[i], pubsCfg, "pubs");
        spec.add(suite[i], bigBpCfg, "base/large-bp");
    }
    std::fprintf(stderr, "fig13: %zu runs (pubs + large-bp x D-BP)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"workload", "base_mpki", "bigbp_mpki", "pubs",
                     "large_predictor"});
    std::vector<double> pubsRatios, bigRatios;
    for (size_t k = 0; k < dbp.size(); ++k) {
        if (!sweep.ok(2 * k) || !sweep.ok(2 * k + 1))
            continue;
        size_t i = dbp[k];
        const pubs::sim::RunResult &withPubs = sweep.at(2 * k);
        const pubs::sim::RunResult &withBigBp = sweep.at(2 * k + 1);
        double sPubs = withPubs.speedupOver(base.at(i));
        double sBig = withBigBp.speedupOver(base.at(i));
        pubsRatios.push_back(sPubs);
        bigRatios.push_back(sBig);
        table.addRow({suite[i].name,
                      num(base.at(i).branchMpki, 1),
                      num(withBigBp.branchMpki, 1), pct(sPubs),
                      pct(sBig)});
    }
    table.addRow({"GM diff", "", "", pct(geoMeanRatio(pubsRatios)),
                  pct(geoMeanRatio(bigRatios))});

    std::printf("FIGURE 13: PUBS vs enlarged branch predictor (D-BP)\n");
    std::printf("(paper: the enlarged predictor's gain is marginal; "
                "PUBS is clearly better)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig13_large_predictor", table);
    return 0;
}
