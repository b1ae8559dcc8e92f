/**
 * @file
 * Figure 9: correlation between PUBS speedup, branch MPKI, and memory
 * intensity. The paper plots one dot per program: red = compute-intensive
 * (LLC MPKI <= 1.0), blue = memory-intensive (> 1.0); for the red dots,
 * speedup correlates with branch MPKI and exceeds the blue dots.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/bench_util.hh"
#include "sim/config.hh"

namespace
{

/** Pearson correlation coefficient. */
double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    double mx = 0, my = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= (double)x.size();
    my /= (double)y.size();
    double sxy = 0, sxx = 0, syy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    return sxy / std::sqrt(sxx * syy);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace sim = pubs::sim;
    namespace wl = pubs::wl;

    RunOptions options = parseRunOptions(argc, argv);

    auto suite = wl::makeSuite();
    SweepSpec spec(options);
    for (const auto &workload : suite)
        spec.add(workload, sim::makeConfig(sim::Machine::Base), "base");
    for (const auto &workload : suite)
        spec.add(workload, sim::makeConfig(sim::Machine::Pubs), "pubs");
    std::fprintf(stderr, "fig9: %zu runs (base + PUBS)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    TextTable table({"workload", "branch_mpki", "llc_mpki", "intensity",
                     "speedup"});
    std::vector<double> mpkiCompute, speedupCompute;
    std::vector<double> speedupMem;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (!sweep.ok(i) || !sweep.ok(suite.size() + i))
            continue;
        const sim::RunResult &b = sweep.at(i);
        double speedup = sweep.at(suite.size() + i).speedupOver(b);
        bool memIntensive = b.llcMpki > memIntensityThreshold;
        if (memIntensive) {
            speedupMem.push_back(speedup);
        } else {
            mpkiCompute.push_back(b.branchMpki);
            speedupCompute.push_back(speedup);
        }
        table.addRow({suite[i].name, num(b.branchMpki, 1),
                      num(b.llcMpki, 1),
                      memIntensive ? "memory (blue)" : "compute (red)",
                      pct(speedup)});
    }

    std::printf("FIGURE 9: speedup vs branch MPKI vs memory intensity\n");
    std::printf("(paper: compute-intensive dots correlate with branch "
                "MPKI; memory dots sit lower)\n\n%s\n",
                table.str().c_str());

    double r = pearson(mpkiCompute, speedupCompute);
    double meanCompute = pubs::arithmeticMean(speedupCompute);
    double meanMem = speedupMem.empty()
                         ? 1.0
                         : pubs::arithmeticMean(speedupMem);
    std::printf("correlation(speedup, branch MPKI) over compute "
                "programs: r = %.2f\n", r);
    std::printf("mean speedup: compute %s vs memory-intensive %s\n",
                pct(meanCompute).c_str(), pct(meanMem).c_str());
    maybeWriteCsv(options, "fig9_correlation", table);
    return 0;
}
