/**
 * @file
 * Table III: the PUBS hardware cost breakdown (def_tab, brslice_tab,
 * conf_tab) at the default configuration, plus the cost impact of the
 * Section IV design choices (tag hashing, associativity, counter width).
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "pubs/cost_model.hh"

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace pp = pubs::pubs;

    RunOptions options = parseRunOptions(argc, argv);

    pp::PubsParams defaults;
    std::printf("%s\n", pp::formatCostTable(defaults).c_str());

    TextTable table({"variant", "def_tab_KB", "brslice_KB", "conf_KB",
                     "total_KB"});
    auto row = [&table](const char *name, const pp::PubsParams &p) {
        pp::CostBreakdown cost = pp::computeCost(p);
        table.addRow({name, num(cost.defTabKB()), num(cost.brsliceTabKB()),
                      num(cost.confTabKB()), num(cost.totalKB())});
    };

    row("default (hashed q=8/4)", defaults);

    pp::PubsParams full = defaults;
    full.fullTags = true;
    row("full tags (no hashing)", full);

    pp::PubsParams tagless = defaults;
    tagless.tagless = true;
    row("tagless direct-mapped", tagless);

    for (unsigned bits : {2u, 4u, 8u}) {
        pp::PubsParams p = defaults;
        p.confCounterBits = bits;
        std::string name = std::to_string(bits) + "-bit counters";
        row(name.c_str(), p);
    }

    std::printf("cost sensitivity (Section IV design points)\n\n%s",
                table.str().c_str());
    maybeWriteCsv(options, "table3_cost", table);
    return 0;
}
