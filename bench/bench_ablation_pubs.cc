/**
 * @file
 * Ablations of PUBS design choices beyond the paper's own sweeps
 * (DESIGN.md section 5):
 *
 *  1. resetting vs up/down-saturating confidence counters — the paper
 *     asserts JRS resetting counters; we measure the difference by
 *     comparing counter widths' unconfident rates under both shapes
 *     (the up/down shape is approximated by a narrow resetting counter).
 *  2. tag-hash width q for the brslice_tab/conf_tab vs full tags —
 *     Section IV claims q=8/4 "hardly degrade the performance".
 *  3. set-associative vs tagless tables — the paper's "preliminary
 *     evaluation" preferred set-associative.
 *  4. legacy IQ organisations (shifting / circular) vs the random queue
 *     — quantifies the Section III-B1 taxonomy.
 *
 * Every configuration below is known up front, so the whole ablation is
 * submitted as ONE sweep batch; each section then reads its runs back
 * by the indices SweepSpec::add returned.
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "sim/config.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace pubs::bench;
namespace sim = pubs::sim;
namespace wl = pubs::wl;

/** Indices of one labelled variant run over a workload list. */
struct Variant
{
    std::string label;
    std::vector<size_t> runs; ///< sweep indices, workload-aligned
};

/** Queue @p params over @p workloads; remember the indices. */
Variant
addVariant(SweepSpec &spec, const std::vector<wl::Workload> &workloads,
           const pubs::cpu::CoreParams &params, const std::string &label)
{
    Variant v{label, {}};
    for (const auto &workload : workloads)
        v.runs.push_back(spec.add(workload, params, label));
    return v;
}

/** Geomean speedup of a variant over base runs at @p baseRuns. */
double
geomeanSpeedup(const SweepResult &sweep, const Variant &variant,
               const std::vector<size_t> &baseRuns)
{
    std::vector<double> ratios;
    for (size_t k = 0; k < variant.runs.size(); ++k) {
        if (!sweep.ok(variant.runs[k]) || !sweep.ok(baseRuns[k]))
            continue;
        ratios.push_back(sweep.at(variant.runs[k])
                             .speedupOver(sweep.at(baseRuns[k])));
    }
    return geoMeanRatio(ratios);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options = parseRunOptions(argc, argv);

    // A representative D-BP pair keeps this ablation bench fast.
    std::vector<wl::Workload> picks;
    picks.push_back(wl::makeWorkload("sjeng_like"));
    picks.push_back(wl::makeWorkload("gobmk_like"));
    std::vector<wl::Workload> sjengOnly{picks[0]};
    std::vector<wl::Workload> mcfOnly{wl::makeWorkload("mcf_like")};

    SweepSpec spec(options);
    Variant base =
        addVariant(spec, picks, sim::makeConfig(sim::Machine::Base),
                   "base");

    // --- 2/3: tag handling ---
    pubs::cpu::CoreParams hashed = sim::makeConfig(sim::Machine::Pubs);
    Variant tagHashed = addVariant(spec, picks, hashed, "hashed q=8/4");
    pubs::cpu::CoreParams fullCfg = hashed;
    fullCfg.pubs.fullTags = true;
    Variant tagFull = addVariant(spec, picks, fullCfg, "full tags");
    pubs::cpu::CoreParams narrow = hashed;
    narrow.pubs.brsliceHashBits = 4;
    narrow.pubs.confHashBits = 2;
    Variant tagNarrow = addVariant(spec, picks, narrow, "hashed q=4/2");
    pubs::cpu::CoreParams taglessCfg = hashed;
    taglessCfg.pubs.tagless = true;
    Variant tagless = addVariant(spec, picks, taglessCfg, "tagless");

    // --- 4: IQ organisations (no PUBS) ---
    std::vector<Variant> iqVariants;
    for (auto kind : {pubs::iq::IqKind::Shifting,
                      pubs::iq::IqKind::Circular}) {
        pubs::cpu::CoreParams params = sim::makeConfig(sim::Machine::Base);
        params.iqKind = kind;
        iqVariants.push_back(
            addVariant(spec, picks, params, pubs::iq::iqKindName(kind)));
    }
    iqVariants.push_back(addVariant(spec, picks,
                                    sim::makeConfig(sim::Machine::Age),
                                    "random + age matrix"));

    // --- mode-switch thresholds ---
    Variant mcfBase =
        addVariant(spec, mcfOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    struct ThresholdPoint
    {
        double threshold;
        Variant sjeng, mcf;
    };
    std::vector<ThresholdPoint> thresholdPoints;
    for (double threshold : {0.5, 1.0, 4.0, 1e9}) {
        pubs::cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.modeMpkiThreshold = threshold;
        std::string label =
            "pubs/thresh=" + num(threshold > 1e6 ? -1.0 : threshold, 1);
        thresholdPoints.push_back(
            {threshold, addVariant(spec, sjengOnly, params, label),
             addVariant(spec, mcfOnly, params, label)});
    }

    // --- tag handling under a large static code footprint ---
    // The suite's kernels are tiny loops, so the PC-indexed tables see
    // almost no capacity or aliasing pressure. A 192x-unrolled kernel
    // (~6K static instructions, ~200 static hard branches) stresses the
    // brslice_tab/conf_tab the way big-code programs do.
    wl::BranchyParams bigBp;
    bigBp.seed = 7;
    bigBp.elems = 1 << 12;
    bigBp.hardBranches = 1;
    bigBp.sliceDepth = 2;
    bigBp.takenBias = 0.65;
    bigBp.intFiller = 9;
    bigBp.fpFiller = 10;
    bigBp.unroll = 192;
    wl::Workload big;
    big.name = "bigcode";
    big.program = wl::branchyProgram("bigcode", bigBp);
    std::vector<wl::Workload> bigOnly{big};

    Variant bigBase =
        addVariant(spec, bigOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    Variant bigHashed = addVariant(spec, bigOnly, hashed, "hashed q=8/4");
    Variant bigFull = addVariant(spec, bigOnly, fullCfg, "full tags");
    Variant bigTagless = addVariant(spec, bigOnly, taglessCfg, "tagless");
    pubs::cpu::CoreParams smallTabs = hashed;
    smallTabs.pubs.brsliceSets = 64;
    smallTabs.pubs.confSets = 64;
    Variant bigSmallTabs =
        addVariant(spec, bigOnly, smallTabs, "quarter-size tables");

    // --- blind vs conf_tab under mixed branch confidence ---
    // The suite's hard branches are data-random, so nearly every slice
    // is unconfident and the blind model loses nothing. This kernel
    // adds a perfectly-predicted (confident) loop branch whose slice —
    // the whole index chain — floods the priority entries when every
    // branch is blindly treated as unconfident, recreating the
    // Fig. 11 blind-vs-PUBS gap in isolation.
    wl::BranchyParams mixedBp;
    mixedBp.seed = 11;
    mixedBp.elems = 1 << 12;
    mixedBp.hardBranches = 1;
    mixedBp.sliceDepth = 2;
    mixedBp.takenBias = 0.65;
    mixedBp.intFiller = 9;
    mixedBp.fpFiller = 10;
    mixedBp.condLoopBranch = true;
    wl::Workload mixed;
    mixed.name = "mixed_confidence";
    mixed.program = wl::branchyProgram("mixed_confidence", mixedBp);
    std::vector<wl::Workload> mixedOnly{mixed};

    Variant mixedBase =
        addVariant(spec, mixedOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    Variant mixedConf = addVariant(spec, mixedOnly,
                                   sim::makeConfig(sim::Machine::Pubs),
                                   "conf_tab");
    pubs::cpu::CoreParams blindCfg = sim::makeConfig(sim::Machine::Pubs);
    blindCfg.pubs.useConfTab = false;
    Variant mixedBlind = addVariant(spec, mixedOnly, blindCfg, "blind");

    // --- 1: confidence counter shape ---
    std::vector<Variant> shapeVariants;
    std::vector<bool> shapeResetting;
    for (auto shape : {pubs::pubs::CounterShape::Resetting,
                       pubs::pubs::CounterShape::UpDown}) {
        pubs::cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.counterShape = shape;
        bool resetting = shape == pubs::pubs::CounterShape::Resetting;
        shapeResetting.push_back(resetting);
        shapeVariants.push_back(addVariant(
            spec, picks, params, resetting ? "resetting" : "up/down"));
    }

    // --- Section III-C variants ---
    Variant vPubs = addVariant(spec, picks,
                               sim::makeConfig(sim::Machine::Pubs),
                               "PUBS (partitioned unified IQ)");
    pubs::cpu::CoreParams ideal = sim::makeConfig(sim::Machine::Pubs);
    ideal.pubs.priorityEntries = 0;
    ideal.idealPrioritySelect = true;
    Variant vIdeal = addVariant(spec, picks, ideal,
                                "ideal flexible-priority select (III-C1)");
    pubs::cpu::CoreParams distBase = sim::makeConfig(sim::Machine::Base);
    distBase.distributedIq = true;
    Variant vDistBase = addVariant(spec, picks, distBase,
                                   "distributed IQ, no PUBS (III-C2)");
    pubs::cpu::CoreParams distPubs = sim::makeConfig(sim::Machine::Pubs);
    distPubs.distributedIq = true;
    // Per-queue partitions are small, so the stall policy is too blunt
    // here; the distributed port uses non-stall dispatch.
    distPubs.pubs.stallPolicy = false;
    Variant vDistPubs =
        addVariant(spec, picks, distPubs,
                   "distributed IQ + PUBS (III-C2, non-stall)");

    // Run everything at once.
    std::fprintf(stderr, "ablation: %zu runs in one batch\n",
                 spec.items.size());
    SweepResult sweep = runSweep(spec);

    // --- report: tag handling ---
    TextTable tags({"tables", "speedup"});
    tags.addRow({"hashed q=8/4 (default)",
                 pct(geomeanSpeedup(sweep, tagHashed, base.runs))});
    tags.addRow({"full tags",
                 pct(geomeanSpeedup(sweep, tagFull, base.runs))});
    tags.addRow({"hashed q=4/2",
                 pct(geomeanSpeedup(sweep, tagNarrow, base.runs))});
    tags.addRow({"tagless direct-mapped",
                 pct(geomeanSpeedup(sweep, tagless, base.runs))});
    std::printf("ABLATION: table tagging (Section IV claims hashing is "
                "nearly free)\n\n%s\n", tags.str().c_str());
    maybeWriteCsv(options, "ablation_tags", tags);

    // --- report: IQ organisations ---
    TextTable iqKinds({"iq_organisation", "ipc_vs_random"});
    for (const Variant &variant : iqVariants) {
        iqKinds.addRow({variant.label,
                        pct(geomeanSpeedup(sweep, variant, base.runs))});
    }
    std::printf("ABLATION: IQ organisation IPC vs the random queue "
                "(Section III-B1 taxonomy)\n\n%s\n",
                iqKinds.str().c_str());
    maybeWriteCsv(options, "ablation_iq_kind", iqKinds);

    // --- report: mode-switch thresholds ---
    TextTable thresholds({"llc_mpki_threshold", "speedup(sjeng)",
                          "speedup(mcf)"});
    for (const ThresholdPoint &point : thresholdPoints) {
        thresholds.addRow(
            {point.threshold > 1e6 ? "inf (never disable)"
                                   : num(point.threshold, 1),
             pct(geomeanSpeedup(sweep, point.sjeng, {base.runs[0]})),
             pct(geomeanSpeedup(sweep, point.mcf, mcfBase.runs))});
    }
    std::printf("ABLATION: mode-switch LLC MPKI threshold\n\n%s\n",
                thresholds.str().c_str());
    maybeWriteCsv(options, "ablation_mode_threshold", thresholds);

    // --- report: big-code tag handling ---
    TextTable bigCode({"tables (large footprint)", "speedup"});
    bigCode.addRow({"hashed q=8/4 (default)",
                    pct(geomeanSpeedup(sweep, bigHashed, bigBase.runs))});
    bigCode.addRow({"full tags",
                    pct(geomeanSpeedup(sweep, bigFull, bigBase.runs))});
    bigCode.addRow({"tagless direct-mapped",
                    pct(geomeanSpeedup(sweep, bigTagless, bigBase.runs))});
    bigCode.addRow({"hashed, quarter-size tables",
                    pct(geomeanSpeedup(sweep, bigSmallTabs,
                                       bigBase.runs))});
    std::printf("ABLATION: table tagging under a ~6K-instruction "
                "footprint\n\n%s\n", bigCode.str().c_str());
    maybeWriteCsv(options, "ablation_tags_bigcode", bigCode);

    // --- report: blind vs conf_tab ---
    TextTable blind({"confidence source (mixed kernel)", "speedup",
                     "priority_stalls"});
    blind.addRow({"conf_tab (6-bit resetting)",
                  pct(geomeanSpeedup(sweep, mixedConf, mixedBase.runs)),
                  std::to_string(
                      sweep.at(mixedConf.runs[0]).priorityStallCycles)});
    blind.addRow({"blind (all branches unconfident)",
                  pct(geomeanSpeedup(sweep, mixedBlind, mixedBase.runs)),
                  std::to_string(
                      sweep.at(mixedBlind.runs[0]).priorityStallCycles)});
    std::printf("ABLATION: blind vs conf_tab on a mixed-confidence "
                "kernel (Fig. 11's blind gap)\n\n%s\n",
                blind.str().c_str());
    maybeWriteCsv(options, "ablation_blind", blind);

    // --- report: confidence counter shape ---
    TextTable shapes({"counter_shape", "speedup", "unconfident_rate"});
    for (size_t v = 0; v < shapeVariants.size(); ++v) {
        std::vector<double> rates;
        for (size_t run : shapeVariants[v].runs)
            if (sweep.ok(run))
                rates.push_back(sweep.at(run).unconfidentBranchRate);
        shapes.addRow({shapeResetting[v] ? "resetting (JRS, paper)"
                                         : "up/down saturating",
                       pct(geomeanSpeedup(sweep, shapeVariants[v],
                                          base.runs)),
                       num(pubs::arithmeticMean(rates), 2)});
    }
    std::printf("ABLATION: confidence counter shape\n"
                "(the paper adopts resetting counters; up/down forgives "
                "isolated mispredictions)\n\n%s\n",
                shapes.str().c_str());
    maybeWriteCsv(options, "ablation_counter_shape", shapes);

    // --- report: Section III-C variants ---
    TextTable variants({"variant", "speedup_vs_unified_base"});
    for (const Variant *variant : {&vPubs, &vIdeal, &vDistBase,
                                   &vDistPubs}) {
        variants.addRow({variant->label,
                         pct(geomeanSpeedup(sweep, *variant,
                                            base.runs))});
    }
    std::printf("ABLATION: Section III-C implementation variants\n"
                "(the ideal select bounds what partitioning "
                "approximates; PUBS applies to distributed IQs too)\n\n"
                "%s",
                variants.str().c_str());
    maybeWriteCsv(options, "ablation_iii_c", variants);
    return 0;
}
