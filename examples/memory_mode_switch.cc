/**
 * @file
 * Example: the Section III-B3 mode switch in action. A memory-bound
 * pointer-chasing workload needs every IQ entry for memory-level
 * parallelism; reserving priority entries would hurt. The mode switch
 * observes the LLC MPKI and turns PUBS off automatically.
 */

#include <cstdio>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

int
main()
{
    using namespace pubs;

    const uint64_t warmup = 50000;
    const uint64_t measure = 300000;

    for (const char *name : {"mcf_like", "soplex_like", "sjeng_like"}) {
        wl::Workload w = wl::makeWorkload(name);

        sim::RunResult base = sim::simulate(
            sim::makeConfig(sim::Machine::Base), w.program, warmup,
            measure);

        cpu::CoreParams withSwitch = sim::makeConfig(sim::Machine::Pubs);
        sim::RunResult on =
            sim::simulate(withSwitch, w.program, warmup, measure);

        cpu::CoreParams noSwitch = withSwitch;
        noSwitch.pubs.modeSwitch = false;
        sim::RunResult off =
            sim::simulate(noSwitch, w.program, warmup, measure);

        std::printf("%-12s  LLC MPKI %6.1f | speedup: switch on %+5.1f%%"
                    ", switch off %+5.1f%% | PUBS active %.0f%% of "
                    "intervals\n",
                    name, base.pipeline.llcMpki(),
                    (on.speedupOver(base) - 1.0) * 100.0,
                    (off.speedupOver(base) - 1.0) * 100.0,
                    on.pubsEnabledFraction * 100.0);
    }

    std::printf("\nThe memory-bound programs keep their MLP because the "
                "switch idles PUBS;\nthe compute-bound D-BP program "
                "keeps its full PUBS gain.\n");
    return 0;
}
