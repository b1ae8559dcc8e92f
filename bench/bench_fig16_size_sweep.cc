/**
 * @file
 * Figure 16 / Table IV: IPC increase of PUBS, AGE and PUBS+AGE over the
 * base at four processor sizes. Paper: both criticality-aware schemes
 * gain effectiveness as the window grows; PUBS stays ahead of AGE and
 * PUBS+AGE ahead of both at every size.
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
    namespace cpu = pubs::cpu;

    RunOptions options = parseRunOptions(argc, argv);

    auto suite = wl::makeSuite();

    // Print Table IV.
    std::printf("TABLE IV: processor size classes\n");
    TextTable sizes({"size", "width", "IQ", "ROB", "LSQ", "regs",
                     "iALU/iMUL/LdSt/FPU"});
    const cpu::SizeClass classes[] = {
        cpu::SizeClass::Small, cpu::SizeClass::Medium,
        cpu::SizeClass::Large, cpu::SizeClass::Huge};
    for (auto size : classes) {
        cpu::CoreParams p = cpu::CoreParams::scaled(size);
        sizes.addRow({cpu::sizeClassName(size),
                      std::to_string(p.issueWidth),
                      std::to_string(p.iqEntries),
                      std::to_string(p.robEntries),
                      std::to_string(p.lsqEntries),
                      std::to_string(p.intPhysRegs) + "+" +
                          std::to_string(p.fpPhysRegs),
                      std::to_string(p.numIntAlu) + "/" +
                          std::to_string(p.numIntMulDiv) + "/" +
                          std::to_string(p.numLdSt) + "/" +
                          std::to_string(p.numFpu)});
    }
    std::printf("%s\n", sizes.str().c_str());

    // Classify D-BP on the default (medium) base machine.
    std::fprintf(stderr, "fig16: classification run\n");
    SweepResult medium =
        runSuite(suite, sim::makeConfig(sim::Machine::Base), options, true,
                 "base");
    std::vector<size_t> dbp;
    for (size_t i = 0; i < suite.size(); ++i)
        if (medium.ok(i) && medium.at(i).branchMpki > dbpThreshold)
            dbp.push_back(i);

    // One batch over every (size, machine, workload) point — the
    // largest figure sweep in the harness (4 sizes x 4 machines x D-BP).
    const sim::Machine machines[4] = {
        sim::Machine::Base, sim::Machine::Pubs, sim::Machine::Age,
        sim::Machine::PubsAge};
    SweepSpec spec(options);
    for (auto size : classes) {
        for (const sim::Machine machine : machines) {
            std::string label = std::string(sim::machineName(machine)) +
                                "@" + cpu::sizeClassName(size);
            for (size_t i : dbp)
                spec.add(suite[i], sim::makeConfig(machine, size), label);
        }
    }
    std::fprintf(stderr, "fig16: %zu runs (sizes x machines x D-BP)\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);
    // Index of (size s, machine m, workload k) in the spec.
    auto at = [&](size_t s, size_t m, size_t k) {
        return (s * 4 + m) * dbp.size() + k;
    };

    TextTable table({"size", "PUBS", "AGE", "PUBS+AGE"});
    for (size_t s = 0; s < 4; ++s) {
        std::vector<double> ratios[3];
        for (size_t m = 1; m < 4; ++m) {
            for (size_t k = 0; k < dbp.size(); ++k) {
                if (!sweep.ok(at(s, 0, k)) || !sweep.ok(at(s, m, k)))
                    continue;
                ratios[m - 1].push_back(sweep.at(at(s, m, k))
                                            .speedupOver(
                                                sweep.at(at(s, 0, k))));
            }
        }
        table.addRow({cpu::sizeClassName(classes[s]),
                      pct(geoMeanRatio(ratios[0])),
                      pct(geoMeanRatio(ratios[1])),
                      pct(geoMeanRatio(ratios[2]))});
    }

    std::printf("FIGURE 16: D-BP geomean IPC increase vs processor "
                "size\n");
    std::printf("(paper: effectiveness grows with size; PUBS > AGE, "
                "PUBS+AGE best)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "fig16_size_sweep", table);
    return 0;
}
