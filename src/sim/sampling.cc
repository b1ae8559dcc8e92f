#include "sim/sampling.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hh"
#include "common/logging.hh"

namespace pubs::sim
{

namespace
{

/** Two-sided 95% Student-t quantiles (t_{0.975,df}); df > 30 ~ normal. */
constexpr double tTable975[31] = {
    0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
    2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
    2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
    2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
};

double
tQuantile975(uint32_t df)
{
    if (df == 0)
        return 0.0;
    return df <= 30 ? tTable975[df] : 1.96;
}

// merge(into, from): pool one field of a measurement window into the
// running total, for each field type of the stats field lists.

void
merge(uint64_t &into, uint64_t from)
{
    into += from;
}

/** Bucket-wise histogram merge; both sides share one geometry. */
void
merge(Histogram &into, const Histogram &from)
{
    std::vector<uint64_t> counts(into.numBuckets());
    for (size_t i = 0; i < into.numBuckets(); ++i)
        counts[i] = into.bucket(i) + from.bucket(i);
    into.restore(into.bucketWidth(), into.scale(), std::move(counts),
                 into.sum() + from.sum(),
                 into.samples() + from.samples());
}

void
merge(cpu::CpiStack &into, const cpu::CpiStack &from)
{
    into.merge(from);
}

/** The field-list visitor: pool one field of a window into the total. */
constexpr auto mergeField = [](auto &into, const auto &from) {
    merge(into, from);
};

/**
 * Pool @p from's per-branch profile rows into @p into by pc, re-rank and
 * re-cap. Each window only exports its own top rows, so a branch hot in
 * one window and just-below-cap in another is slightly undercounted —
 * acceptable for a profile whose purpose is ranking the dominant sites.
 */
void
mergeBranchProfile(cpu::BranchSites &into, const cpu::BranchSites &from)
{
    for (const auto &[pc, site] : from) {
        auto it = std::find_if(into.begin(), into.end(),
                               [&](const auto &e) { return e.first == pc; });
        if (it == into.end())
            into.emplace_back(pc, site);
        else
            cpu::BranchSiteStats::forEachField(mergeField, it->second, site);
    }
    cpu::rankBranchSites(into, maxBranchProfileRows);
}

} // namespace

void
SamplePlan::validate() const
{
    if (!enabled())
        return;
    if (measureInsts == 0) {
        throw ConfigError("sampling plan needs a positive per-window "
                          "measurement budget");
    }
    if (windows > 1 && periodInsts == 0) {
        throw ConfigError("multi-window sampling needs a positive "
                          "sampling period");
    }
}

std::string
SamplePlan::describe() const
{
    std::ostringstream out;
    out << "windows=" << windows << " period=" << periodInsts
        << " warmup=" << warmupInsts << " measure=" << measureInsts;
    return out.str();
}

MeanCi
meanCi(const std::vector<double> &xs)
{
    MeanCi ci;
    ci.n = (uint32_t)xs.size();
    if (ci.n == 0)
        return ci;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    ci.mean = sum / (double)ci.n;
    if (ci.n < 2)
        return ci; // a single window carries no spread information
    double ss = 0.0;
    for (double x : xs)
        ss += (x - ci.mean) * (x - ci.mean);
    double variance = ss / (double)(ci.n - 1);
    ci.halfWidth =
        tQuantile975(ci.n - 1) * std::sqrt(variance / (double)ci.n);
    return ci;
}

RunResult
simulateSampled(const cpu::CoreParams &params, const isa::Program &program,
                const SamplePlan &plan, const CheckpointStore *store,
                const std::string &machineLabel)
{
    plan.validate();
    if (!plan.enabled()) {
        throw ConfigError(
            "simulateSampled called with sampling disabled");
    }

    // The warming context only ever fast-forwards; detailed windows run
    // in throwaway Simulators restored from its checkpoints, so their
    // execution never perturbs later windows' start state.
    Simulator warming(params, program);

    CheckpointMeta meta;
    meta.workload = program.name();
    meta.machine = machineLabel;
    meta.programCrc = programFingerprint(program);
    meta.paramsFp = paramsFingerprint(params);

    RunResult total;
    total.workload = program.name();
    total.machine = machineLabel;
    std::vector<double> ipcs, branchMpkis, llcMpkis;

    for (uint32_t w = 0; w < plan.windows; ++w) {
        uint64_t target = (uint64_t)w * plan.periodInsts;
        meta.skipInsts = target;

        Simulator window(params, program);
        if (target > 0) {
            std::string bytes;
            bool hit = store && store->load(meta, bytes);
            if (!hit) {
                uint64_t need = target - warming.fastForwarded();
                if (warming.fastForward(need) < need) {
                    // The program ended before this window's start;
                    // later windows are beyond it too.
                    warn("sampling: program ended %llu insts before "
                         "window %u; stitching %zu windows",
                         (unsigned long long)(target -
                             warming.fastForwarded()),
                         w, ipcs.size());
                    break;
                }
                bytes = warming.saveCheckpoint(machineLabel);
                if (store)
                    store->save(meta, bytes);
            }
            window.restoreCheckpoint(bytes);
        }

        RunResult wr = window.run(plan.warmupInsts, plan.measureInsts);
        if (wr.instructions == 0)
            break; // nothing measurable left (halt inside warmup)

        cpu::PipelineStats::forEachField(mergeField, total.pipeline,
                                         wr.pipeline);
        mergeBranchProfile(total.branchProfile, wr.branchProfile);
        total.simSeconds += wr.simSeconds;
        // The slice unit and mode switch are cumulative from reset
        // (fast-forward trains them too), so the last window's rates
        // cover the longest instruction prefix: use them.
        total.unconfidentBranchRate = wr.unconfidentBranchRate;
        total.pubsEnabledFraction = wr.pubsEnabledFraction;
        total.skippedInsts = target;
        ipcs.push_back(wr.ipc);
        branchMpkis.push_back(wr.branchMpki);
        llcMpkis.push_back(wr.llcMpki);
    }

    // Point estimates come from the pooled counters (the union of the
    // measured windows); the confidence intervals from the per-window
    // spread. See DESIGN.md section 10 for the methodology.
    total.deriveHeadline();
    total.sampled = true;
    total.windows = (uint32_t)ipcs.size();
    total.ipcCi95 = meanCi(ipcs).halfWidth;
    total.branchMpkiCi95 = meanCi(branchMpkis).halfWidth;
    total.llcMpkiCi95 = meanCi(llcMpkis).halfWidth;
    return total;
}

} // namespace pubs::sim
