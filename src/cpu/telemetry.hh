/**
 * @file
 * Cycle-level core telemetry (CoreParams::telemetry):
 *
 *  - a per-branch-PC misprediction / misspeculation-penalty profile, the
 *    analysis of Lin & Tarsa ("Branch Prediction Is Not a Solved
 *    Problem"): a handful of static branches dominate misprediction cost;
 *  - ground truth for the PUBS slice predictor: at every resolved
 *    misprediction the pipeline walks the true dynamic backward slice of
 *    the branch through the ROB and compares it against what the
 *    conf_tab / brslice_tab predicted (coverage), while commit counts how
 *    many predicted-unconfident-slice instructions really fed a
 *    mispredicted branch (accuracy) — the paper's Fig. 9 correlation made
 *    measurable;
 *  - a per-cycle priority-entry occupancy histogram (are the reserved
 *    entries earning their area?);
 *  - an interval heartbeat (IPC / MPKI / IQ occupancy per interval) so
 *    long runs are debuggable mid-flight.
 *
 * The Pipeline owns one instance only when telemetry is enabled; every
 * hot-path hook is gated behind a single null-pointer check.
 */

#ifndef PUBS_CPU_TELEMETRY_HH
#define PUBS_CPU_TELEMETRY_HH

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/cpi_stack.hh"

namespace pubs::cpu
{

struct CoreParams;
struct PipelineStats;

/**
 * Accumulated cost of one static conditional branch: the misprediction
 * profile plus the confidence×outcome quadrant (how often the conf_tab
 * called this branch unconfident, and how often it was right to) and
 * the true-backward-slice coverage attributed to the branch — the
 * per-branch view of which PCs PUBS actually helps.
 */
struct BranchSiteStats
{
    uint64_t commits = 0;     ///< committed executions
    uint64_t mispredicts = 0; ///< resolved mispredictions
    uint64_t penaltySum = 0;  ///< summed misspeculation penalty cycles

    // Confidence×outcome quadrant at commit.
    uint64_t confidentCorrect = 0;
    uint64_t confidentWrong = 0;
    uint64_t unconfidentCorrect = 0;
    uint64_t unconfidentWrong = 0;

    // True-backward-slice instructions of this branch's resolved
    // mispredictions, and how many the slice predictor had covered.
    uint64_t sliceInsts = 0;
    uint64_t sliceCovered = 0;

    /**
     * The field list: calls @p visit once per field, on that field of
     * every one of @p sites, in sweep-row payload order. The sweep-row
     * codec and the sampled-window merge walk it.
     */
    template <typename Visit, typename... Sites>
    static void
    forEachField(Visit &&visit, Sites &...sites)
    {
        visit(sites.commits...);
        visit(sites.mispredicts...);
        visit(sites.penaltySum...);
        visit(sites.confidentCorrect...);
        visit(sites.confidentWrong...);
        visit(sites.unconfidentCorrect...);
        visit(sites.unconfidentWrong...);
        visit(sites.sliceInsts...);
        visit(sites.sliceCovered...);
    }
};

/** Static branch sites with their accumulated cost, keyed by pc. */
using BranchSites = std::vector<std::pair<Pc, BranchSiteStats>>;

/**
 * Sort @p sites most costly first — by mispredictions, then summed
 * penalty, then pc, so the order is deterministic — and keep the first
 * @p topN.
 */
void rankBranchSites(BranchSites &sites, size_t topN);

/** One heartbeat interval's headline numbers. */
struct HeartbeatSample
{
    Cycle cycle;               ///< sample time
    double intervalIpc;        ///< IPC over the interval just ended
    double intervalMpki;       ///< branch MPKI over the interval
    double intervalIqOccupancy; ///< mean IQ occupancy over the interval
    CpiStack cpiDelta;         ///< CPI-stack cycles of this interval
};

/** One PUBS mode-switch flip, with the CPI stack accumulated since the
 *  previous flip (or measurement start) — the "why it fired" record. */
struct ModeTransition
{
    Cycle cycle;       ///< cycle the flip was observed
    bool enabled;      ///< new mode
    CpiStack cpiDelta; ///< component cycles since the previous flip
};

class CoreTelemetry
{
  public:
    explicit CoreTelemetry(const CoreParams &params);

    /** Zero measurement state at a warmup boundary; @p now re-anchors
     *  the heartbeat intervals. */
    void resetStats(Cycle now);

    // --- per-cycle sampling ---

    /** Called once per cycle with the occupied priority-entry count. */
    void
    noteCycle(size_t iqOccupancy, size_t priorityOccupancy)
    {
        priorityOccupancy_.sample(priorityOccupancy);
        intervalOccupancySum_ += iqOccupancy;
        ++intervalCycles_;
    }

    /**
     * Account @p span consecutive idle cycles with constant occupancy
     * in one call (the event-driven pipeline's fast-forward path);
     * bit-identical to @p span noteCycle() calls.
     */
    void
    noteCycles(size_t iqOccupancy, size_t priorityOccupancy,
               uint64_t span)
    {
        priorityOccupancy_.sample(priorityOccupancy, span);
        intervalOccupancySum_ += (uint64_t)iqOccupancy * span;
        intervalCycles_ += span;
    }

    // --- slice ground truth (filled by the pipeline's ROB walk) ---

    /** An instruction was found in the true backward slice of a resolved
     *  misprediction of the branch at @p branchPc; @p predictedUnconfident
     *  is its decode-time PUBS classification. */
    void
    noteTrueSliceInst(Pc branchPc, bool predictedUnconfident)
    {
        ++trueSliceInsts_;
        BranchSiteStats &site = sites_[branchPc];
        ++site.sliceInsts;
        if (predictedUnconfident) {
            ++trueSliceCovered_;
            ++site.sliceCovered;
        }
    }

    /** A correct-path instruction committed. */
    void
    noteCommit(bool predictedUnconfident, bool inTrueSlice)
    {
        ++committedInsts_;
        if (predictedUnconfident) {
            ++committedUnconfident_;
            if (inTrueSlice)
                ++committedUnconfidentTrue_;
        }
    }

    /** A conditional branch at @p pc committed; @p unconfident is its
     *  decode-time confidence, @p correct its prediction outcome. */
    void
    noteBranchCommit(Pc pc, bool unconfident, bool correct)
    {
        BranchSiteStats &site = sites_[pc];
        ++site.commits;
        if (unconfident)
            ++(correct ? site.unconfidentCorrect : site.unconfidentWrong);
        else
            ++(correct ? site.confidentCorrect : site.confidentWrong);
    }

    /** An unconfident-slice instruction issued @p latency cycles after
     *  leaving decode, from a priority or normal IQ entry. */
    void
    noteSliceIssue(bool priorityEntry, uint64_t latency)
    {
        (priorityEntry ? prioritySliceLatency_ : normalSliceLatency_)
            .sample(latency);
    }

    /** The LLC-MPKI mode switch flipped to @p enabled at @p now;
     *  @p cpi is the cumulative CPI stack at the flip. */
    void
    noteModeTransition(Cycle now, bool enabled, const CpiStack &cpi)
    {
        ++modeTransitionCount_;
        if (transitions_.size() < maxRecordedTransitions) {
            transitions_.push_back(
                {now, enabled, cpi.deltaSince(lastTransitionCpi_)});
        }
        lastTransitionCpi_ = cpi;
    }

    /** A misprediction at @p pc resolved with @p penalty cycles. */
    void
    noteMispredictResolved(Pc pc, Cycle penalty)
    {
        BranchSiteStats &site = sites_[pc];
        ++site.mispredicts;
        site.penaltySum += penalty;
    }

    // --- heartbeat ---

    /** First cycle at/after which a heartbeat sample is due
     *  (neverCycle when the heartbeat is disabled). */
    Cycle nextHeartbeat() const { return nextHeartbeat_; }

    /** Take a heartbeat sample at @p now from the live counters. */
    void heartbeat(Cycle now, const PipelineStats &stats);

    // --- reporting ---

    /**
     * Fraction of true-backward-slice instructions of mispredicted
     * branches that the slice predictor had marked unconfident-slice.
     */
    double
    sliceCoverage() const
    {
        return trueSliceInsts_
                   ? (double)trueSliceCovered_ / (double)trueSliceInsts_
                   : 0.0;
    }

    /**
     * Fraction of committed predicted-unconfident-slice instructions
     * that really were in a mispredicted branch's backward slice.
     */
    double
    sliceAccuracy() const
    {
        return committedUnconfident_
                   ? (double)committedUnconfidentTrue_ /
                         (double)committedUnconfident_
                   : 0.0;
    }

    uint64_t trueSliceInsts() const { return trueSliceInsts_; }
    uint64_t trueSliceCovered() const { return trueSliceCovered_; }
    uint64_t committedUnconfident() const { return committedUnconfident_; }
    uint64_t committedUnconfidentTrue() const
        { return committedUnconfidentTrue_; }

    const Histogram &priorityOccupancy() const { return priorityOccupancy_; }
    const Histogram &prioritySliceLatency() const
        { return prioritySliceLatency_; }
    const Histogram &normalSliceLatency() const
        { return normalSliceLatency_; }
    const std::vector<HeartbeatSample> &heartbeats() const
        { return heartbeats_; }
    const std::vector<ModeTransition> &modeTransitions() const
        { return transitions_; }
    uint64_t modeTransitionCount() const { return modeTransitionCount_; }
    const std::unordered_map<Pc, BranchSiteStats> &branchSites() const
        { return sites_; }

    /** The @p topN sites in rankBranchSites() order. */
    BranchSites topBranchSites(size_t topN) const;

    /** Publish slice / priority-occupancy stats into @p group. */
    void fillSliceStats(StatGroup &group) const;

    /** Publish the top-@p topN branch profile into @p group. */
    void fillBranchProfile(StatGroup &group, size_t topN = 20) const;

    /** Publish the heartbeat series into @p group. */
    void fillHeartbeats(StatGroup &group) const;

    /** Publish the mode-switch transition records into @p group. */
    void fillModeTransitions(StatGroup &group) const;

    /** The branch profile as an aligned text table (CLI output). */
    std::string formatBranchProfile(size_t topN = 10) const;

  private:
    unsigned heartbeatInterval_;
    bool heartbeatToStderr_;
    Cycle nextHeartbeat_;

    uint64_t trueSliceInsts_ = 0;
    uint64_t trueSliceCovered_ = 0;
    uint64_t committedInsts_ = 0;
    uint64_t committedUnconfident_ = 0;
    uint64_t committedUnconfidentTrue_ = 0;

    Histogram priorityOccupancy_{32};
    /** Decode-to-issue latency of issued unconfident-slice instructions,
     *  split by the IQ partition they issued from (log2 buckets: slices
     *  behind an LLC miss wait hundreds of cycles). */
    Histogram prioritySliceLatency_{24, 1, BucketScale::Log2};
    Histogram normalSliceLatency_{24, 1, BucketScale::Log2};
    std::unordered_map<Pc, BranchSiteStats> sites_;

    // Interval deltas for the heartbeat.
    uint64_t lastCommitted_ = 0;
    uint64_t lastMispredicts_ = 0;
    Cycle lastCycle_ = 0;
    uint64_t intervalOccupancySum_ = 0;
    uint64_t intervalCycles_ = 0;
    CpiStack lastCpi_{};
    std::vector<HeartbeatSample> heartbeats_;

    // Mode-switch transition records (bounded; thrashing configurations
    // keep counting past the cap without growing the vector).
    static constexpr size_t maxRecordedTransitions = 1024;
    std::vector<ModeTransition> transitions_;
    CpiStack lastTransitionCpi_{};
    uint64_t modeTransitionCount_ = 0;
};

} // namespace pubs::cpu

#endif // PUBS_CPU_TELEMETRY_HH
