/**
 * @file
 * Tables I & II: print the base processor configuration and the PUBS
 * parameter set used throughout the evaluation.
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "pubs/cost_model.hh"
#include "sim/config.hh"

int
main(int argc, char **argv)
{
    using namespace pubs;

    bench::parseRunOptions(argc, argv);

    cpu::CoreParams base = sim::makeConfig(sim::Machine::Base);
    std::printf("TABLE I: base processor configuration\n%s\n",
                base.describe().c_str());

    cpu::CoreParams withPubs = sim::makeConfig(sim::Machine::Pubs);
    std::printf("TABLE II: PUBS parameters\n%s\n",
                withPubs.describe().c_str());

    std::printf("%s\n",
                ::pubs::pubs::formatCostTable(withPubs.pubs).c_str());
    return 0;
}
