/**
 * @file
 * Example: explore the issue-queue design space of Section III-B1 on one
 * branchy workload — random queue, shifting queue, circular queue, age
 * matrix, PUBS, and PUBS+AGE — reporting IPC and the misspeculation
 * penalty each organisation leaves on the table.
 */

#include <cstdio>

#include "iq/delay_model.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

int
main()
{
    using namespace pubs;

    wl::Workload w = wl::makeWorkload("sjeng_like");
    const uint64_t warmup = 100000;
    const uint64_t measure = 400000;

    struct Variant
    {
        const char *name;
        cpu::CoreParams params;
        bool ageClockPenalty;
    };
    std::vector<Variant> variants;

    variants.push_back({"random queue (base)",
                        sim::makeConfig(sim::Machine::Base), false});
    {
        cpu::CoreParams p = sim::makeConfig(sim::Machine::Base);
        p.iqKind = iq::IqKind::Shifting;
        variants.push_back({"shifting queue (21264-style)", p, false});
    }
    {
        cpu::CoreParams p = sim::makeConfig(sim::Machine::Base);
        p.iqKind = iq::IqKind::Circular;
        variants.push_back({"circular queue", p, false});
    }
    variants.push_back({"random + age matrix",
                        sim::makeConfig(sim::Machine::Age), true});
    variants.push_back({"PUBS", sim::makeConfig(sim::Machine::Pubs),
                        false});
    variants.push_back({"PUBS + age matrix",
                        sim::makeConfig(sim::Machine::PubsAge), true});

    iq::DelayModel delay;
    std::printf("workload: %s\n\n", w.name.c_str());
    std::printf("%-28s %8s %10s %12s %12s\n", "organisation", "IPC",
                "perf*", "IQ wait", "misspec");
    std::printf("%s\n", std::string(76, '-').c_str());

    double baseIpc = 0.0;
    for (const auto &variant : variants) {
        sim::RunResult r =
            sim::simulate(variant.params, w.program, warmup, measure);
        if (baseIpc == 0.0)
            baseIpc = r.pipeline.ipc();
        double perf =
            delay.performance(r.pipeline.ipc(), variant.ageClockPenalty) /
            delay.performance(baseIpc, false);
        std::printf("%-28s %8.3f %9.1f%% %9.1f cyc %9.1f cyc\n",
                    variant.name, r.pipeline.ipc(), (perf - 1.0) * 100.0,
                    r.pipeline.avgIqWait(), r.pipeline.avgMisspecPenalty());
    }
    std::printf("\n*perf folds in the age matrix's +13%% IQ-delay/clock "
                "penalty (Section V-G1)\n");
    return 0;
}
