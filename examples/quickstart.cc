/**
 * @file
 * Quickstart: build a branch-heavy workload, run it on the baseline core
 * and on a PUBS-enabled core, and print the speedup — the paper's
 * headline experiment in ~30 lines.
 */

#include <cstdio>
#include <cstdlib>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

int
main()
{
    using namespace pubs;

    // A sjeng-like workload: compute-bound with hard-to-predict branches.
    wl::Workload workload = wl::makeWorkload("sjeng_like");

    const uint64_t warmup = 100000;
    const uint64_t measure = 500000;

    sim::RunResult base = sim::simulate(
        sim::makeConfig(sim::Machine::Base), workload.program, warmup,
        measure);
    sim::RunResult pubs = sim::simulate(
        sim::makeConfig(sim::Machine::Pubs), workload.program, warmup,
        measure);

    if (std::getenv("PUBS_QUICKSTART_VERBOSE")) {
        std::printf("-- detail (base vs pubs) --\n");
        std::printf("avg IQ wait       : %.2f -> %.2f\n",
                    base.pipeline.avgIqWait(), pubs.pipeline.avgIqWait());
        std::printf("priority stalls   : %llu cycles\n",
                    (unsigned long long)pubs.pipeline.priorityStallCycles);
        std::printf("unconfident rate  : %.2f\n",
                    pubs.unconfidentBranchRate);
        std::printf("slice insts       : %llu of %llu committed\n",
                    (unsigned long long)
                        pubs.pipeline.priorityDispatches,
                    (unsigned long long)pubs.pipeline.committed);
        std::printf("issue conflicts   : %llu (base) %llu (pubs) cycles\n",
                    (unsigned long long)base.pipeline.issueConflictCycles,
                    (unsigned long long)pubs.pipeline.issueConflictCycles);
    }

    std::printf("workload          : %s\n", workload.name.c_str());
    std::printf("branch MPKI       : %.1f\n", base.pipeline.branchMpki());
    std::printf("base IPC          : %.3f\n", base.pipeline.ipc());
    std::printf("PUBS IPC          : %.3f\n", pubs.pipeline.ipc());
    std::printf("speedup           : %+.1f%%\n",
                (pubs.speedupOver(base) - 1.0) * 100.0);
    std::printf("misspec. penalty  : %.1f -> %.1f cycles\n",
                base.pipeline.avgMisspecPenalty(),
                pubs.pipeline.avgMisspecPenalty());
    return 0;
}
