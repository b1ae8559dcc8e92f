#include "cpu/telemetry.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "cpu/params.hh"
#include "cpu/pipeline.hh"

namespace pubs::cpu
{

CoreTelemetry::CoreTelemetry(const CoreParams &params)
    : heartbeatInterval_(params.heartbeatInterval),
      heartbeatToStderr_(params.heartbeatToStderr),
      nextHeartbeat_(params.heartbeatInterval == 0
                         ? neverCycle
                         : (Cycle)params.heartbeatInterval)
{
}

void
CoreTelemetry::resetStats(Cycle now)
{
    trueSliceInsts_ = 0;
    trueSliceCovered_ = 0;
    committedInsts_ = 0;
    committedUnconfident_ = 0;
    committedUnconfidentTrue_ = 0;
    priorityOccupancy_.reset();
    prioritySliceLatency_.reset();
    normalSliceLatency_.reset();
    sites_.clear();
    heartbeats_.clear();
    transitions_.clear();
    lastCommitted_ = 0;
    lastMispredicts_ = 0;
    lastCycle_ = now;
    intervalOccupancySum_ = 0;
    intervalCycles_ = 0;
    lastCpi_ = CpiStack{};
    lastTransitionCpi_ = CpiStack{};
    modeTransitionCount_ = 0;
    nextHeartbeat_ =
        heartbeatInterval_ == 0 ? neverCycle : now + heartbeatInterval_;
}

void
CoreTelemetry::heartbeat(Cycle now, const PipelineStats &stats)
{
    uint64_t committed = stats.committed - lastCommitted_;
    uint64_t mispredicts = (stats.condMispredicts +
                            stats.indirectMispredicts) -
                           lastMispredicts_;
    Cycle cycles = now - lastCycle_;

    HeartbeatSample sample;
    sample.cycle = now;
    sample.intervalIpc = cycles ? (double)committed / (double)cycles : 0.0;
    sample.intervalMpki =
        committed ? (double)mispredicts * 1000.0 / (double)committed : 0.0;
    sample.intervalIqOccupancy =
        intervalCycles_
            ? (double)intervalOccupancySum_ / (double)intervalCycles_
            : 0.0;
    sample.cpiDelta = stats.cpi.deltaSince(lastCpi_);
    lastCpi_ = stats.cpi;
    heartbeats_.push_back(sample);

    if (heartbeatToStderr_) {
        inform("heartbeat cycle=%llu committed=%llu ipc=%.3f mpki=%.2f "
               "iq_occ=%.1f",
               (unsigned long long)now,
               (unsigned long long)stats.committed, sample.intervalIpc,
               sample.intervalMpki, sample.intervalIqOccupancy);
    }

    lastCommitted_ = stats.committed;
    lastMispredicts_ = stats.condMispredicts + stats.indirectMispredicts;
    lastCycle_ = now;
    intervalOccupancySum_ = 0;
    intervalCycles_ = 0;
    nextHeartbeat_ = now + heartbeatInterval_;
}

void
rankBranchSites(BranchSites &sites, size_t topN)
{
    std::sort(sites.begin(), sites.end(), [](const auto &a, const auto &b) {
        if (a.second.mispredicts != b.second.mispredicts)
            return a.second.mispredicts > b.second.mispredicts;
        if (a.second.penaltySum != b.second.penaltySum)
            return a.second.penaltySum > b.second.penaltySum;
        return a.first < b.first;
    });
    if (sites.size() > topN)
        sites.resize(topN);
}

BranchSites
CoreTelemetry::topBranchSites(size_t topN) const
{
    BranchSites sites(sites_.begin(), sites_.end());
    rankBranchSites(sites, topN);
    return sites;
}

void
CoreTelemetry::fillSliceStats(StatGroup &group) const
{
    group.add("true_slice_insts", (double)trueSliceInsts_,
              "insts found in true backward slices of mispredictions");
    group.add("true_slice_covered", (double)trueSliceCovered_,
              "... that PUBS had classified unconfident-slice");
    group.add("slice_coverage", sliceCoverage(),
              "covered / true-slice (recall of the slice predictor)");
    group.add("committed_insts", (double)committedInsts_);
    group.add("committed_unconfident", (double)committedUnconfident_,
              "committed insts classified unconfident-slice");
    group.add("committed_unconfident_true",
              (double)committedUnconfidentTrue_,
              "... that really fed a mispredicted branch");
    group.add("slice_accuracy", sliceAccuracy(),
              "true / classified (precision of the slice predictor)");
    group.addHistogram("priority_occupancy", priorityOccupancy_,
                       "occupied priority IQ entries per cycle");
    group.addHistogram("priority_slice_latency", prioritySliceLatency_,
                       "decode-to-issue cycles of unconfident-slice "
                       "insts issued from priority entries");
    group.addHistogram("normal_slice_latency", normalSliceLatency_,
                       "decode-to-issue cycles of unconfident-slice "
                       "insts issued from normal entries");
}

void
CoreTelemetry::fillBranchProfile(StatGroup &group, size_t topN) const
{
    group.add("static_branches", (double)sites_.size(),
              "distinct conditional-branch PCs seen at commit/resolve");
    auto top = topBranchSites(topN);
    for (const auto &[pc, site] : top) {
        char key[48];
        std::snprintf(key, sizeof(key), "pc_0x%llx",
                      (unsigned long long)pc);
        std::string prefix = key;
        group.add(prefix + "_commits", (double)site.commits);
        group.add(prefix + "_mispredicts", (double)site.mispredicts);
        group.add(prefix + "_penalty_cycles", (double)site.penaltySum);
        group.add(prefix + "_avg_penalty",
                  site.mispredicts ? (double)site.penaltySum /
                                         (double)site.mispredicts
                                   : 0.0);
        group.add(prefix + "_conf_correct", (double)site.confidentCorrect);
        group.add(prefix + "_conf_wrong", (double)site.confidentWrong);
        group.add(prefix + "_unconf_correct",
                  (double)site.unconfidentCorrect);
        group.add(prefix + "_unconf_wrong", (double)site.unconfidentWrong);
        group.add(prefix + "_slice_insts", (double)site.sliceInsts,
                  "true-backward-slice insts of this branch's "
                  "mispredictions");
        group.add(prefix + "_slice_covered", (double)site.sliceCovered,
                  "... classified unconfident-slice at decode");
    }
}

void
CoreTelemetry::fillHeartbeats(StatGroup &group) const
{
    group.add("interval_cycles", (double)heartbeatInterval_);
    group.add("samples", (double)heartbeats_.size());
    std::vector<double> cycles, ipc, mpki, occupancy;
    cycles.reserve(heartbeats_.size());
    ipc.reserve(heartbeats_.size());
    mpki.reserve(heartbeats_.size());
    occupancy.reserve(heartbeats_.size());
    for (const HeartbeatSample &sample : heartbeats_) {
        cycles.push_back((double)sample.cycle);
        ipc.push_back(sample.intervalIpc);
        mpki.push_back(sample.intervalMpki);
        occupancy.push_back(sample.intervalIqOccupancy);
    }
    group.addVector("cycle", std::move(cycles), "sample times");
    group.addVector("ipc", std::move(ipc), "per-interval IPC");
    group.addVector("mpki", std::move(mpki), "per-interval branch MPKI");
    group.addVector("iq_occupancy", std::move(occupancy),
                    "per-interval mean IQ occupancy");
    for (size_t c = 0; c < numCpiComponents; ++c) {
        std::vector<double> component;
        component.reserve(heartbeats_.size());
        for (const HeartbeatSample &sample : heartbeats_)
            component.push_back((double)sample.cpiDelta.cycles[c]);
        group.addVector(
            std::string("cpi_") + cpiComponentName((CpiComponent)c),
            std::move(component), "per-interval CPI-stack cycles");
    }
}

void
CoreTelemetry::fillModeTransitions(StatGroup &group) const
{
    group.add("count", (double)modeTransitionCount_,
              "PUBS mode-switch flips observed during measurement");
    group.add("recorded", (double)transitions_.size(),
              "flips with a CPI-stack delta record (bounded)");
    std::vector<double> cycles, enabled;
    cycles.reserve(transitions_.size());
    enabled.reserve(transitions_.size());
    for (const ModeTransition &t : transitions_) {
        cycles.push_back((double)t.cycle);
        enabled.push_back(t.enabled ? 1.0 : 0.0);
    }
    group.addVector("cycle", std::move(cycles), "flip times");
    group.addVector("enabled", std::move(enabled),
                    "new mode after each flip (1 = PUBS on)");
    for (size_t c = 0; c < numCpiComponents; ++c) {
        std::vector<double> component;
        component.reserve(transitions_.size());
        for (const ModeTransition &t : transitions_)
            component.push_back((double)t.cpiDelta.cycles[c]);
        group.addVector(
            std::string("cpi_") + cpiComponentName((CpiComponent)c),
            std::move(component),
            "CPI-stack cycles accumulated since the previous flip");
    }
}

std::string
CoreTelemetry::formatBranchProfile(size_t topN) const
{
    auto top = topBranchSites(topN);
    std::ostringstream out;
    out << "top branch sites by mispredictions ("
        << sites_.size() << " static branches):\n";
    char line[176];
    std::snprintf(line, sizeof(line),
                  "  %-12s %10s %12s %14s %12s %8s %9s\n",
                  "pc", "commits", "mispredicts", "penalty(cyc)",
                  "avg_penalty", "unconf%", "slice_cov");
    out << line;
    for (const auto &[pc, site] : top) {
        uint64_t unconfident =
            site.unconfidentCorrect + site.unconfidentWrong;
        std::snprintf(line, sizeof(line),
                      "  0x%-10llx %10llu %12llu %14llu %12.1f %7.1f%% "
                      "%9.2f\n",
                      (unsigned long long)pc,
                      (unsigned long long)site.commits,
                      (unsigned long long)site.mispredicts,
                      (unsigned long long)site.penaltySum,
                      site.mispredicts ? (double)site.penaltySum /
                                             (double)site.mispredicts
                                       : 0.0,
                      site.commits ? 100.0 * (double)unconfident /
                                         (double)site.commits
                                   : 0.0,
                      site.sliceInsts ? (double)site.sliceCovered /
                                            (double)site.sliceInsts
                                      : 0.0);
        out << line;
    }
    return out.str();
}

} // namespace pubs::cpu
