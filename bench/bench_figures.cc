/**
 * @file
 * The evaluation driver: Tables I-IV, Figs. 8-16 and the ablations. Each
 * is a planner that adds its runs to one deduplicated RunSet and returns
 * the printer of its table. Run under a figure's own name (a symlink to
 * this binary) it prints that figure alone, as the figure's own binary
 * used to; under its own name, all of them in table order.
 *
 * Figs. 10-13 and 16 sweep only the D-BP programs, so they plan in a
 * second step, after the base machine has run over the suite and
 * classified it. Each step's new runs go out as one runSweep; with
 * --journal PATH the second step is journaled at PATH.1.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "branch/predictor.hh"
#include "common/bench_util.hh"
#include "iq/delay_model.hh"
#include "pubs/cost_model.hh"
#include "sim/config.hh"
#include "workloads/kernels.hh"

namespace pubs::bench
{
namespace
{

/** Prints one table or figure once its runs have run. */
using Printer = std::function<void(const RunSet &)>;

/**
 * The suite programs whose base-machine branch MPKI exceeds
 * dbpThreshold, in suite order, and those base runs. It outlives the
 * printers, which may refer to it.
 */
struct DbpPrograms
{
    std::vector<wl::Workload> workloads;
    std::vector<RunHandle> base; ///< workload-aligned
};

/** Speedups of @p variant over the aligned @p base runs, both clean. */
std::vector<double>
speedups(const RunSet &runs, const std::vector<RunHandle> &variant,
         const std::vector<RunHandle> &base)
{
    std::vector<double> ratios;
    for (size_t k = 0; k < variant.size(); ++k)
        if (runs.ok(variant[k]) && runs.ok(base[k]))
            ratios.push_back(
                runs.at(variant[k]).speedupOver(runs.at(base[k])));
    return ratios;
}

/**
 * Tables I & II: print the base processor configuration and the PUBS
 * parameter set used throughout the evaluation.
 */
Printer
planTable1(RunSet &)
{
    return [](const RunSet &) {
        cpu::CoreParams base = sim::makeConfig(sim::Machine::Base);
        std::printf("TABLE I: base processor configuration\n%s\n",
                    base.describe().c_str());

        cpu::CoreParams withPubs = sim::makeConfig(sim::Machine::Pubs);
        std::printf("TABLE II: PUBS parameters\n%s\n",
                    withPubs.describe().c_str());

        std::printf("%s\n", pubs::formatCostTable(withPubs.pubs).c_str());
    };
}

/**
 * Table III: the PUBS hardware cost breakdown (def_tab, brslice_tab,
 * conf_tab) at the default configuration, plus the cost impact of the
 * Section IV design choices (tag hashing, associativity, counter width).
 */
Printer
planTable3(RunSet &)
{
    return [](const RunSet &runs) {
        pubs::PubsParams defaults;
        std::printf("%s\n", pubs::formatCostTable(defaults).c_str());

        TextTable table({"variant", "def_tab_KB", "brslice_KB", "conf_KB",
                         "total_KB"});
        auto row = [&table](const char *name, const pubs::PubsParams &p) {
            pubs::CostBreakdown cost = pubs::computeCost(p);
            table.addRow({name, num(cost.defTabKB()),
                          num(cost.brsliceTabKB()), num(cost.confTabKB()),
                          num(cost.totalKB())});
        };

        row("default (hashed q=8/4)", defaults);

        pubs::PubsParams full = defaults;
        full.fullTags = true;
        row("full tags (no hashing)", full);

        pubs::PubsParams tagless = defaults;
        tagless.tagless = true;
        row("tagless direct-mapped", tagless);

        for (unsigned bits : {2u, 4u, 8u}) {
            pubs::PubsParams p = defaults;
            p.confCounterBits = bits;
            std::string name = std::to_string(bits) + "-bit counters";
            row(name.c_str(), p);
        }

        std::printf("cost sensitivity (Section IV design points)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "table3_cost", table);
    };
}

/**
 * Figure 8: speedup of PUBS over the base machine, per workload.
 *
 * The paper reports per-program bars for the D-BP programs (branch MPKI
 * > 3.0 on the base machine), "GM diff" (their geometric mean), and
 * "GM easy" (geometric mean of the E-BP programs). Paper results:
 * GM diff +7.8%, max +19.2% (sjeng), min +0.3% (mcf); GM easy ~ 0.
 */
Printer
planFig8(RunSet &runs)
{
    // The whole suite on both machines, scheduled across the pool at
    // once so slow and fast workloads interleave.
    auto suite = wl::makeSuite();
    auto base =
        runs.addEach(suite, sim::makeConfig(sim::Machine::Base), "base");
    auto withPubs =
        runs.addEach(suite, sim::makeConfig(sim::Machine::Pubs), "pubs");

    return [names = wl::suiteNames(), base, withPubs](const RunSet &runs) {
        TextTable table({"workload", "class", "branch_mpki", "llc_mpki",
                         "base_ipc", "pubs_ipc", "speedup"});
        std::vector<double> dbp;
        std::vector<double> ebp;
        for (size_t i = 0; i < names.size(); ++i) {
            if (!runs.ok(base[i]) || !runs.ok(withPubs[i]))
                continue;
            const sim::RunResult &b = runs.at(base[i]);
            const sim::RunResult &p = runs.at(withPubs[i]);
            bool hard = b.branchMpki > dbpThreshold;
            double speedup = p.speedupOver(b);
            (hard ? dbp : ebp).push_back(speedup);
            table.addRow({names[i], hard ? "D-BP" : "E-BP",
                          num(b.branchMpki, 1), num(b.llcMpki, 1),
                          num(b.ipc), num(p.ipc), pct(speedup)});
        }
        table.addRow({"GM diff", "D-BP", "", "", "", "", meanCell(dbp)});
        table.addRow({"GM easy", "E-BP", "", "", "", "", meanCell(ebp)});

        std::printf("FIGURE 8: speedup of PUBS over the base\n");
        std::printf("(paper: GM diff +7.8%%, max +19.2%% sjeng, min +0.3%% "
                    "mcf, GM easy ~0%%)\n\n%s", table.str().c_str());
        maybeWriteCsv(runs.options(), "fig8_speedup", table);
    };
}

/** Pearson correlation coefficient, as text; "n/a" below two points. */
std::string
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() < 2)
        return "n/a";
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
    return num(sxy / std::sqrt(sxx * syy), 2);
}

/**
 * Figure 9: correlation between PUBS speedup, branch MPKI, and memory
 * intensity. The paper plots one dot per program: red = compute-intensive
 * (LLC MPKI <= 1.0), blue = memory-intensive (> 1.0); for the red dots,
 * speedup correlates with branch MPKI and exceeds the blue dots.
 */
Printer
planFig9(RunSet &runs)
{
    auto suite = wl::makeSuite();
    auto base =
        runs.addEach(suite, sim::makeConfig(sim::Machine::Base), "base");
    auto withPubs =
        runs.addEach(suite, sim::makeConfig(sim::Machine::Pubs), "pubs");

    return [names = wl::suiteNames(), base, withPubs](const RunSet &runs) {
        TextTable table({"workload", "branch_mpki", "llc_mpki",
                         "intensity", "speedup"});
        std::vector<double> mpkiCompute, speedupCompute;
        std::vector<double> speedupMem;
        for (size_t i = 0; i < names.size(); ++i) {
            if (!runs.ok(base[i]) || !runs.ok(withPubs[i]))
                continue;
            const sim::RunResult &b = runs.at(base[i]);
            double speedup = runs.at(withPubs[i]).speedupOver(b);
            bool memIntensive = b.llcMpki > memIntensityThreshold;
            if (memIntensive) {
                speedupMem.push_back(speedup);
            } else {
                mpkiCompute.push_back(b.branchMpki);
                speedupCompute.push_back(speedup);
            }
            table.addRow({names[i], num(b.branchMpki, 1),
                          num(b.llcMpki, 1),
                          memIntensive ? "memory (blue)" : "compute (red)",
                          pct(speedup)});
        }

        std::printf("FIGURE 9: speedup vs branch MPKI vs memory "
                    "intensity\n");
        std::printf("(paper: compute-intensive dots correlate with branch "
                    "MPKI; memory dots sit lower)\n\n%s\n",
                    table.str().c_str());

        std::printf("correlation(speedup, branch MPKI) over compute "
                    "programs: r = %s\n",
                    pearson(mpkiCompute, speedupCompute).c_str());
        std::printf("mean speedup: compute %s vs memory-intensive %s\n",
                    meanCell(speedupCompute, Mean::Arithmetic).c_str(),
                    meanCell(speedupMem, Mean::Arithmetic).c_str());
        maybeWriteCsv(runs.options(), "fig9_correlation", table);
    };
}

/**
 * Figure 10: average speedup over the base in D-BP when varying the
 * number of priority entries, for both dispatch policies. Paper: with
 * the stall policy, 2 entries degrade below the base, the optimum is 6;
 * the non-stall policy is consistently weaker.
 */
Printer
planFig10(RunSet &runs, const DbpPrograms &programs)
{
    // Every (entry count, policy, D-BP workload) point.
    struct Point
    {
        unsigned entries;
        std::vector<RunHandle> stall, nonStall; ///< workload-aligned
    };
    std::vector<Point> points;
    for (unsigned entries : {2, 4, 6, 8, 10, 12}) {
        Point point{entries, {}, {}};
        for (bool stallPolicy : {true, false}) {
            cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
            params.pubs.priorityEntries = entries;
            params.pubs.stallPolicy = stallPolicy;
            std::string label = "pubs@" + std::to_string(entries) +
                                (stallPolicy ? "/stall" : "/non-stall");
            (stallPolicy ? point.stall : point.nonStall) =
                runs.addEach(programs.workloads, params, label);
        }
        points.push_back(std::move(point));
    }

    return [&programs, points](const RunSet &runs) {
        TextTable table({"priority_entries", "stall", "non-stall"});
        for (const Point &point : points) {
            table.addRow(
                {std::to_string(point.entries),
                 meanCell(speedups(runs, point.stall, programs.base)),
                 meanCell(speedups(runs, point.nonStall, programs.base))});
        }

        std::printf("FIGURE 10: D-BP geomean speedup vs #priority "
                    "entries\n");
        std::printf("(paper: stall@2 below base; optimum 6; stall beats "
                    "non-stall)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig10_priority_entries", table);
    };
}

/**
 * Figure 11: average D-BP speedup (bars) and unconfident-branch rate
 * (line) when varying the confidence counter width from 2 to 8 bits,
 * plus the "blind" model (every branch deemed unconfident, no conf_tab).
 * Paper: rate grows with width; optimum 6 bits at ~71% unconfident;
 * blind is worse than PUBS with the conf_tab.
 */
Printer
planFig11(RunSet &runs, const DbpPrograms &programs)
{
    // Every (counter width | blind, D-BP workload) point.
    struct Point
    {
        std::string label;
        unsigned bits; ///< 0: blind, no conf_tab
        std::vector<RunHandle> handles; ///< workload-aligned
    };
    std::vector<Point> points;
    for (unsigned bits = 2; bits <= 8; ++bits)
        points.push_back({std::to_string(bits), bits, {}});
    points.push_back({"blind", 0, {}});
    for (Point &point : points) {
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.useConfTab = point.bits != 0;
        if (point.bits)
            params.pubs.confCounterBits = point.bits;
        point.handles = runs.addEach(programs.workloads, params,
                                     "pubs@" + point.label + "bit");
    }

    return [&programs, points](const RunSet &runs) {
        TextTable table({"conf_bits", "speedup", "unconfident_rate"});
        for (const Point &point : points) {
            std::vector<double> speedups, rates;
            for (size_t k = 0; k < point.handles.size(); ++k) {
                if (!runs.ok(point.handles[k]))
                    continue;
                const sim::RunResult &r = runs.at(point.handles[k]);
                speedups.push_back(r.speedupOver(runs.at(programs.base[k])));
                rates.push_back(point.bits ? r.unconfidentBranchRate : 1.0);
            }
            table.addRow({point.label, meanCell(speedups),
                          meanCell(rates, Mean::Arithmetic, 2)});
        }

        std::printf("FIGURE 11: D-BP speedup & unconfident rate vs counter "
                    "bits\n");
        std::printf("(paper: optimum 6 bits at ~71%% unconfident; blind "
                    "below PUBS)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig11_conf_bits", table);
    };
}

/**
 * Figure 12: per-workload speedup with the mode switch enabled vs
 * disabled. Paper: most programs are indifferent, but the memory-bound
 * mcf and soplex degrade when the switch is disabled (PUBS's reserved
 * entries then cost MLP when the IQ capacity matters most).
 */
Printer
planFig12(RunSet &runs, const DbpPrograms &programs)
{
    cpu::CoreParams withSwitch = sim::makeConfig(sim::Machine::Pubs);
    cpu::CoreParams noSwitch = sim::makeConfig(sim::Machine::Pubs);
    noSwitch.pubs.modeSwitch = false;

    // Each D-BP workload with the switch on and off.
    std::vector<RunHandle> on, off;
    for (const wl::Workload &workload : programs.workloads) {
        on.push_back(runs.add(workload, withSwitch, "pubs/switch-on"));
        off.push_back(runs.add(workload, noSwitch, "pubs/switch-off"));
    }

    return [&programs, on, off](const RunSet &runs) {
        TextTable table({"workload", "llc_mpki", "switch_on", "switch_off",
                         "pubs_on_fraction"});
        std::vector<double> onRatios, offRatios;
        for (size_t k = 0; k < programs.workloads.size(); ++k) {
            if (!runs.ok(on[k]) || !runs.ok(off[k]))
                continue;
            const sim::RunResult &base = runs.at(programs.base[k]);
            double sOn = runs.at(on[k]).speedupOver(base);
            double sOff = runs.at(off[k]).speedupOver(base);
            onRatios.push_back(sOn);
            offRatios.push_back(sOff);
            table.addRow({programs.workloads[k].name, num(base.llcMpki, 1),
                          pct(sOn), pct(sOff),
                          num(runs.at(on[k]).pubsEnabledFraction, 2)});
        }
        table.addRow({"GM diff", "", meanCell(onRatios),
                      meanCell(offRatios), ""});

        std::printf("FIGURE 12: speedup with mode switch enabled/disabled "
                    "(D-BP)\n");
        std::printf("(paper: mcf and soplex degrade when the switch is "
                    "off)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig12_mode_switch", table);
    };
}

/**
 * Figure 13 / Section V-F: is PUBS worth its 4 KB, or should the budget
 * buy a bigger branch predictor? Compares PUBS (default perceptron)
 * against the base machine with the enlarged perceptron (36-bit history,
 * 512-entry weight table — more than double the default predictor's
 * cost). Paper: the bigger predictor helps only marginally; PUBS wins.
 */
Printer
planFig13(RunSet &runs, const DbpPrograms &programs)
{
    cpu::CoreParams pubsCfg = sim::makeConfig(sim::Machine::Pubs);
    cpu::CoreParams bigBpCfg = sim::makeConfig(sim::Machine::Base);
    bigBpCfg.predictor = branch::PredictorKind::PerceptronLarge;

    // Each D-BP workload under PUBS and the big predictor.
    std::vector<RunHandle> withPubs, withBigBp;
    for (const wl::Workload &workload : programs.workloads) {
        withPubs.push_back(runs.add(workload, pubsCfg, "pubs"));
        withBigBp.push_back(runs.add(workload, bigBpCfg, "base/large-bp"));
    }

    return [&programs, withPubs, withBigBp](const RunSet &runs) {
        auto defaultBp =
            branch::makePredictor(branch::PredictorKind::Perceptron);
        auto largeBp =
            branch::makePredictor(branch::PredictorKind::PerceptronLarge);
        std::printf("predictor cost: default %.2f KB, enlarged %.2f KB "
                    "(+%.2f KB; PUBS costs 4.0 KB)\n\n",
                    defaultBp->costKB(), largeBp->costKB(),
                    largeBp->costKB() - defaultBp->costKB());

        TextTable table({"workload", "base_mpki", "bigbp_mpki", "pubs",
                         "large_predictor"});
        std::vector<double> pubsRatios, bigRatios;
        for (size_t k = 0; k < programs.workloads.size(); ++k) {
            if (!runs.ok(withPubs[k]) || !runs.ok(withBigBp[k]))
                continue;
            const sim::RunResult &base = runs.at(programs.base[k]);
            const sim::RunResult &bigBp = runs.at(withBigBp[k]);
            double sPubs = runs.at(withPubs[k]).speedupOver(base);
            double sBig = bigBp.speedupOver(base);
            pubsRatios.push_back(sPubs);
            bigRatios.push_back(sBig);
            table.addRow({programs.workloads[k].name,
                          num(base.branchMpki, 1), num(bigBp.branchMpki, 1),
                          pct(sPubs), pct(sBig)});
        }
        table.addRow({"GM diff", "", "", meanCell(pubsRatios),
                      meanCell(bigRatios)});

        std::printf("FIGURE 13: PUBS vs enlarged branch predictor "
                    "(D-BP)\n");
        std::printf("(paper: the enlarged predictor's gain is marginal; "
                    "PUBS is clearly better)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig13_large_predictor", table);
    };
}

const sim::Machine allMachines[4] = {sim::Machine::Base, sim::Machine::Pubs,
                                     sim::Machine::Age,
                                     sim::Machine::PubsAge};

/**
 * Figure 15 / Section V-G: PUBS vs the age matrix.
 *
 * (a) IPC increase over the base for PUBS, AGE and PUBS+AGE. Paper
 *     (D-BP geomeans): PUBS +7.8%, AGE +6.5%, PUBS+AGE +10.2%; in E-BP
 *     the age matrix is slightly ahead of PUBS.
 * (b) *Performance* of PUBS relative to AGE when the age matrix's 13%
 *     IQ-delay increase lengthens the clock: PUBS ahead by ~11.1%.
 */
Printer
planFig15(RunSet &runs)
{
    // The whole suite on all four machines.
    auto suite = wl::makeSuite();
    std::vector<std::vector<RunHandle>> machines;
    for (sim::Machine machine : allMachines) {
        machines.push_back(runs.addEach(suite, sim::makeConfig(machine),
                                        sim::machineName(machine)));
    }

    return [names = wl::suiteNames(), machines](const RunSet &runs) {
        auto at = [&](int m, size_t i) -> const sim::RunResult & {
            return runs.at(machines[m][i]);
        };
        iq::DelayModel delay;

        TextTable table({"workload", "class", "PUBS", "AGE", "PUBS+AGE",
                         "PUBS_vs_AGE_perf"});
        std::vector<double> dbpRatios[3], ebpRatios[3];
        std::vector<double> dbpPerf, ebpPerf;
        for (size_t i = 0; i < names.size(); ++i) {
            if (!std::all_of(machines.begin(), machines.end(),
                             [&](const auto &of) { return runs.ok(of[i]); }))
                continue;
            const sim::RunResult &base = at(0, i);
            bool hard = base.branchMpki > dbpThreshold;
            double ratio[3];
            for (int m = 1; m < 4; ++m) {
                ratio[m - 1] = at(m, i).speedupOver(base);
                (hard ? dbpRatios : ebpRatios)[m - 1].push_back(
                    ratio[m - 1]);
            }
            // Fig 15(b): performance = IPC / cycle time.
            double perf = delay.performance(at(1, i).ipc, false) /
                          delay.performance(at(2, i).ipc, true);
            (hard ? dbpPerf : ebpPerf).push_back(perf);
            table.addRow({names[i], hard ? "D-BP" : "E-BP", pct(ratio[0]),
                          pct(ratio[1]), pct(ratio[2]), pct(perf)});
        }
        table.addRow({"GM diff", "D-BP", meanCell(dbpRatios[0]),
                      meanCell(dbpRatios[1]), meanCell(dbpRatios[2]),
                      meanCell(dbpPerf)});
        table.addRow({"GM easy", "E-BP", meanCell(ebpRatios[0]),
                      meanCell(ebpRatios[1]), meanCell(ebpRatios[2]),
                      meanCell(ebpPerf)});

        std::printf("FIGURE 15(a): IPC increase over base; (b) last "
                    "column: PUBS performance over AGE with the age "
                    "matrix's +13%% cycle time\n");
        std::printf("(paper D-BP GMs: PUBS +7.8%%, AGE +6.5%%, PUBS+AGE "
                    "+10.2%%; PUBS over AGE in performance: +11.1%%)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig15_age_matrix", table);
    };
}

const cpu::SizeClass sizeClasses[4] = {
    cpu::SizeClass::Small, cpu::SizeClass::Medium, cpu::SizeClass::Large,
    cpu::SizeClass::Huge};

/**
 * Figure 16 / Table IV: IPC increase of PUBS, AGE and PUBS+AGE over the
 * base at four processor sizes. Paper: both criticality-aware schemes
 * gain effectiveness as the window grows; PUBS stays ahead of AGE and
 * PUBS+AGE ahead of both at every size.
 */
Printer
planFig16(RunSet &runs, const DbpPrograms &programs)
{
    // Every (size, machine, D-BP workload) point: 4 sizes x 4 machines.
    // The D-BP programs are the ones classified on the medium machine.
    std::vector<RunHandle> points[4][4]; ///< [size][machine], aligned
    for (size_t s = 0; s < 4; ++s) {
        for (size_t m = 0; m < 4; ++m) {
            std::string label =
                std::string(sim::machineName(allMachines[m])) + "@" +
                cpu::sizeClassName(sizeClasses[s]);
            points[s][m] = runs.addEach(
                programs.workloads,
                sim::makeConfig(allMachines[m], sizeClasses[s]), label);
        }
    }

    return [points](const RunSet &runs) {
        std::printf("TABLE IV: processor size classes\n");
        TextTable sizes({"size", "width", "IQ", "ROB", "LSQ", "regs",
                         "iALU/iMUL/LdSt/FPU"});
        for (auto size : sizeClasses) {
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

        TextTable table({"size", "PUBS", "AGE", "PUBS+AGE"});
        for (size_t s = 0; s < 4; ++s) {
            std::vector<std::string> row{cpu::sizeClassName(sizeClasses[s])};
            for (size_t m = 1; m < 4; ++m)
                row.push_back(
                    meanCell(speedups(runs, points[s][m], points[s][0])));
            table.addRow(row);
        }

        std::printf("FIGURE 16: D-BP geomean IPC increase vs processor "
                    "size\n");
        std::printf("(paper: effectiveness grows with size; PUBS > AGE, "
                    "PUBS+AGE best)\n\n%s",
                    table.str().c_str());
        maybeWriteCsv(runs.options(), "fig16_size_sweep", table);
    };
}

/** The runs of one labelled variant over a workload list. */
struct Variant
{
    std::string label;
    std::vector<RunHandle> runs; ///< workload-aligned
};

/** Plan @p params over @p workloads. */
Variant
addVariant(RunSet &runs, const std::vector<wl::Workload> &workloads,
           const cpu::CoreParams &params, const std::string &label)
{
    return {label, runs.addEach(workloads, params, label)};
}

/** Geomean speedup of a variant over the base runs @p baseRuns. */
std::string
geomeanSpeedup(const RunSet &runs, const Variant &variant,
               const std::vector<RunHandle> &baseRuns)
{
    return meanCell(speedups(runs, variant.runs, baseRuns));
}

/** A run's priority-stall cycles; "n/a" for a failed run. */
std::string
priorityStalls(const RunSet &runs, RunHandle run)
{
    return runs.ok(run) ? std::to_string(runs.at(run).priorityStallCycles)
                        : "n/a";
}

/** A branchy kernel (workloads/kernels.hh) outside the suite. */
wl::Workload
branchyKernel(const std::string &name, wl::BranchyParams params)
{
    params.elems = 1 << 12;
    params.hardBranches = 1;
    params.sliceDepth = 2;
    params.takenBias = 0.65;
    params.intFiller = 9;
    params.fpFiller = 10;
    wl::Workload workload;
    workload.name = name;
    workload.program = wl::branchyProgram(name, params);
    return workload;
}

/**
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
 * planned in one step; each section then reads its runs back by the
 * handles RunSet::add returned.
 */
Printer
planAblation(RunSet &runs)
{
    // A representative D-BP pair keeps this ablation bench fast.
    std::vector<wl::Workload> picks;
    picks.push_back(wl::makeWorkload("sjeng_like"));
    picks.push_back(wl::makeWorkload("gobmk_like"));
    std::vector<wl::Workload> sjengOnly{picks[0]};
    std::vector<wl::Workload> mcfOnly{wl::makeWorkload("mcf_like")};

    Variant base =
        addVariant(runs, picks, sim::makeConfig(sim::Machine::Base),
                   "base");

    // --- 2/3: tag handling ---
    cpu::CoreParams hashed = sim::makeConfig(sim::Machine::Pubs);
    Variant tagHashed = addVariant(runs, picks, hashed, "hashed q=8/4");
    cpu::CoreParams fullCfg = hashed;
    fullCfg.pubs.fullTags = true;
    Variant tagFull = addVariant(runs, picks, fullCfg, "full tags");
    cpu::CoreParams narrow = hashed;
    narrow.pubs.brsliceHashBits = 4;
    narrow.pubs.confHashBits = 2;
    Variant tagNarrow = addVariant(runs, picks, narrow, "hashed q=4/2");
    cpu::CoreParams taglessCfg = hashed;
    taglessCfg.pubs.tagless = true;
    Variant tagless = addVariant(runs, picks, taglessCfg, "tagless");

    // --- 4: IQ organisations (no PUBS) ---
    std::vector<Variant> iqVariants;
    for (auto kind : {iq::IqKind::Shifting, iq::IqKind::Circular}) {
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Base);
        params.iqKind = kind;
        iqVariants.push_back(
            addVariant(runs, picks, params, iq::iqKindName(kind)));
    }
    iqVariants.push_back(addVariant(runs, picks,
                                    sim::makeConfig(sim::Machine::Age),
                                    "random + age matrix"));

    // --- mode-switch thresholds ---
    Variant mcfBase =
        addVariant(runs, mcfOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    struct ThresholdPoint
    {
        double threshold;
        Variant sjeng, mcf;
    };
    std::vector<ThresholdPoint> thresholdPoints;
    for (double threshold : {0.5, 1.0, 4.0, 1e9}) {
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.modeMpkiThreshold = threshold;
        std::string label =
            "pubs/thresh=" + num(threshold > 1e6 ? -1.0 : threshold, 1);
        thresholdPoints.push_back(
            {threshold, addVariant(runs, sjengOnly, params, label),
             addVariant(runs, mcfOnly, params, label)});
    }

    // --- tag handling under a large static code footprint ---
    // The suite's kernels are tiny loops, so the PC-indexed tables see
    // almost no capacity or aliasing pressure. A 192x-unrolled kernel
    // (~6K static instructions, ~200 static hard branches) stresses the
    // brslice_tab/conf_tab the way big-code programs do.
    wl::BranchyParams bigBp;
    bigBp.seed = 7;
    bigBp.unroll = 192;
    std::vector<wl::Workload> bigOnly{branchyKernel("bigcode", bigBp)};

    Variant bigBase =
        addVariant(runs, bigOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    Variant bigHashed = addVariant(runs, bigOnly, hashed, "hashed q=8/4");
    Variant bigFull = addVariant(runs, bigOnly, fullCfg, "full tags");
    Variant bigTagless = addVariant(runs, bigOnly, taglessCfg, "tagless");
    cpu::CoreParams smallTabs = hashed;
    smallTabs.pubs.brsliceSets = 64;
    smallTabs.pubs.confSets = 64;
    Variant bigSmallTabs =
        addVariant(runs, bigOnly, smallTabs, "quarter-size tables");

    // --- blind vs conf_tab under mixed branch confidence ---
    // The suite's hard branches are data-random, so nearly every slice
    // is unconfident and the blind model loses nothing. This kernel
    // adds a perfectly-predicted (confident) loop branch whose slice —
    // the whole index chain — floods the priority entries when every
    // branch is blindly treated as unconfident, recreating the
    // Fig. 11 blind-vs-PUBS gap in isolation.
    wl::BranchyParams mixedBp;
    mixedBp.seed = 11;
    mixedBp.condLoopBranch = true;
    std::vector<wl::Workload> mixedOnly{
        branchyKernel("mixed_confidence", mixedBp)};

    Variant mixedBase =
        addVariant(runs, mixedOnly, sim::makeConfig(sim::Machine::Base),
                   "base");
    Variant mixedConf = addVariant(runs, mixedOnly,
                                   sim::makeConfig(sim::Machine::Pubs),
                                   "conf_tab");
    cpu::CoreParams blindCfg = sim::makeConfig(sim::Machine::Pubs);
    blindCfg.pubs.useConfTab = false;
    Variant mixedBlind = addVariant(runs, mixedOnly, blindCfg, "blind");

    // --- 1: confidence counter shape ---
    std::vector<Variant> shapeVariants;
    std::vector<bool> shapeResetting;
    for (auto shape : {pubs::CounterShape::Resetting,
                       pubs::CounterShape::UpDown}) {
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.counterShape = shape;
        bool resetting = shape == pubs::CounterShape::Resetting;
        shapeResetting.push_back(resetting);
        shapeVariants.push_back(addVariant(
            runs, picks, params, resetting ? "resetting" : "up/down"));
    }

    // --- Section III-C variants ---
    Variant vPubs = addVariant(runs, picks,
                               sim::makeConfig(sim::Machine::Pubs),
                               "PUBS (partitioned unified IQ)");
    cpu::CoreParams ideal = sim::makeConfig(sim::Machine::Pubs);
    ideal.pubs.priorityEntries = 0;
    ideal.idealPrioritySelect = true;
    Variant vIdeal = addVariant(runs, picks, ideal,
                                "ideal flexible-priority select (III-C1)");
    cpu::CoreParams distBase = sim::makeConfig(sim::Machine::Base);
    distBase.distributedIq = true;
    Variant vDistBase = addVariant(runs, picks, distBase,
                                   "distributed IQ, no PUBS (III-C2)");
    cpu::CoreParams distPubs = sim::makeConfig(sim::Machine::Pubs);
    distPubs.distributedIq = true;
    // Per-queue partitions are small, so the stall policy is too blunt
    // here; the distributed port uses non-stall dispatch.
    distPubs.pubs.stallPolicy = false;
    Variant vDistPubs =
        addVariant(runs, picks, distPubs,
                   "distributed IQ + PUBS (III-C2, non-stall)");

    return [=](const RunSet &runs) {
        TextTable tags({"tables", "speedup"});
        tags.addRow({"hashed q=8/4 (default)",
                     geomeanSpeedup(runs, tagHashed, base.runs)});
        tags.addRow({"full tags", geomeanSpeedup(runs, tagFull, base.runs)});
        tags.addRow({"hashed q=4/2",
                     geomeanSpeedup(runs, tagNarrow, base.runs)});
        tags.addRow({"tagless direct-mapped",
                     geomeanSpeedup(runs, tagless, base.runs)});
        std::printf("ABLATION: table tagging (Section IV claims hashing is "
                    "nearly free)\n\n%s\n", tags.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_tags", tags);

        TextTable iqKinds({"iq_organisation", "ipc_vs_random"});
        for (const Variant &variant : iqVariants) {
            iqKinds.addRow({variant.label,
                            geomeanSpeedup(runs, variant, base.runs)});
        }
        std::printf("ABLATION: IQ organisation IPC vs the random queue "
                    "(Section III-B1 taxonomy)\n\n%s\n",
                    iqKinds.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_iq_kind", iqKinds);

        TextTable thresholds({"llc_mpki_threshold", "speedup(sjeng)",
                              "speedup(mcf)"});
        for (const ThresholdPoint &point : thresholdPoints) {
            thresholds.addRow(
                {point.threshold > 1e6 ? "inf (never disable)"
                                       : num(point.threshold, 1),
                 geomeanSpeedup(runs, point.sjeng, {base.runs[0]}),
                 geomeanSpeedup(runs, point.mcf, mcfBase.runs)});
        }
        std::printf("ABLATION: mode-switch LLC MPKI threshold\n\n%s\n",
                    thresholds.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_mode_threshold",
                      thresholds);

        TextTable bigCode({"tables (large footprint)", "speedup"});
        bigCode.addRow({"hashed q=8/4 (default)",
                        geomeanSpeedup(runs, bigHashed, bigBase.runs)});
        bigCode.addRow({"full tags",
                        geomeanSpeedup(runs, bigFull, bigBase.runs)});
        bigCode.addRow({"tagless direct-mapped",
                        geomeanSpeedup(runs, bigTagless, bigBase.runs)});
        bigCode.addRow({"hashed, quarter-size tables",
                        geomeanSpeedup(runs, bigSmallTabs, bigBase.runs)});
        std::printf("ABLATION: table tagging under a ~6K-instruction "
                    "footprint\n\n%s\n", bigCode.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_tags_bigcode", bigCode);

        TextTable blind({"confidence source (mixed kernel)", "speedup",
                         "priority_stalls"});
        blind.addRow({"conf_tab (6-bit resetting)",
                      geomeanSpeedup(runs, mixedConf, mixedBase.runs),
                      priorityStalls(runs, mixedConf.runs[0])});
        blind.addRow({"blind (all branches unconfident)",
                      geomeanSpeedup(runs, mixedBlind, mixedBase.runs),
                      priorityStalls(runs, mixedBlind.runs[0])});
        std::printf("ABLATION: blind vs conf_tab on a mixed-confidence "
                    "kernel (Fig. 11's blind gap)\n\n%s\n",
                    blind.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_blind", blind);

        TextTable shapes({"counter_shape", "speedup", "unconfident_rate"});
        for (size_t v = 0; v < shapeVariants.size(); ++v) {
            std::vector<double> rates;
            for (RunHandle run : shapeVariants[v].runs)
                if (runs.ok(run))
                    rates.push_back(runs.at(run).unconfidentBranchRate);
            shapes.addRow({shapeResetting[v] ? "resetting (JRS, paper)"
                                             : "up/down saturating",
                           geomeanSpeedup(runs, shapeVariants[v], base.runs),
                           meanCell(rates, Mean::Arithmetic, 2)});
        }
        std::printf("ABLATION: confidence counter shape\n"
                    "(the paper adopts resetting counters; up/down "
                    "forgives isolated mispredictions)\n\n%s\n",
                    shapes.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_counter_shape", shapes);

        TextTable variants({"variant", "speedup_vs_unified_base"});
        for (const Variant *variant : {&vPubs, &vIdeal, &vDistBase,
                                       &vDistPubs}) {
            variants.addRow({variant->label,
                             geomeanSpeedup(runs, *variant, base.runs)});
        }
        std::printf("ABLATION: Section III-C implementation variants\n"
                    "(the ideal select bounds what partitioning "
                    "approximates; PUBS applies to distributed IQs "
                    "too)\n\n%s",
                    variants.str().c_str());
        maybeWriteCsv(runs.options(), "ablation_iii_c", variants);
    };
}


struct Figure
{
    const char *name; ///< the symlink that runs it alone
    Printer (*plan)(RunSet &); ///< a first-step planner, or
    Printer (*planDbp)(RunSet &, const DbpPrograms &); ///< a second-step one
};

/** Table order. */
const Figure figures[] = {
    {"bench_table1_config", planTable1, nullptr},
    {"bench_table3_cost", planTable3, nullptr},
    {"bench_fig8_speedup", planFig8, nullptr},
    {"bench_fig9_correlation", planFig9, nullptr},
    {"bench_fig10_priority_entries", nullptr, planFig10},
    {"bench_fig11_conf_bits", nullptr, planFig11},
    {"bench_fig12_mode_switch", nullptr, planFig12},
    {"bench_fig13_large_predictor", nullptr, planFig13},
    {"bench_fig15_age_matrix", planFig15, nullptr},
    {"bench_fig16_size_sweep", nullptr, planFig16},
    {"bench_ablation_pubs", planAblation, nullptr},
};

} // namespace
} // namespace pubs::bench

int
main(int argc, char **argv)
{
    using namespace pubs::bench;
    namespace sim = pubs::sim;

    std::string name = argc > 0 ? argv[0] : "";
    name = name.substr(name.find_last_of('/') + 1);
    std::vector<const Figure *> selected;
    for (const Figure &figure : figures)
        if (name == "bench_figures" || name == figure.name)
            selected.push_back(&figure);
    if (selected.empty()) {
        std::fprintf(stderr, "error: unknown figure '%s'; run as "
                             "bench_figures or as one of:\n",
                     name.c_str());
        for (const Figure &figure : figures)
            std::fprintf(stderr, "  %s\n", figure.name);
        return 2;
    }

    RunSet runs(parseRunOptions(argc, argv));
    const std::string &journal = runs.options().journal;
    std::vector<Printer> printers(selected.size());
    bool dbpFigures = false;
    for (size_t f = 0; f < selected.size(); ++f) {
        if (selected[f]->plan)
            printers[f] = selected[f]->plan(runs);
        else
            dbpFigures = true;
    }

    // The D-BP classification: the base machine over the suite, once.
    auto suite = dbpFigures ? pubs::wl::makeSuite()
                            : std::vector<pubs::wl::Workload>{};
    auto base =
        runs.addEach(suite, sim::makeConfig(sim::Machine::Base), "base");
    runs.run(journal);

    DbpPrograms programs; // outlives the printers that refer to it
    for (size_t i = 0; i < suite.size(); ++i) {
        if (runs.ok(base[i]) && runs.at(base[i]).branchMpki > dbpThreshold) {
            programs.workloads.push_back(suite[i]);
            programs.base.push_back(base[i]);
        }
    }
    for (size_t f = 0; f < selected.size(); ++f)
        if (selected[f]->planDbp)
            printers[f] = selected[f]->planDbp(runs, programs);
    runs.run(journal.empty() ? "" : journal + ".1");

    for (const Printer &print : printers)
        print(runs);
    return 0;
}
