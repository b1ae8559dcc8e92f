/**
 * @file
 * The decode-stage orchestrator of the PUBS prediction scheme
 * (Section III-A): walks dataflow backwards through the def_tab, links
 * slice instructions to confidence counters via the brslice_tab, and
 * classifies every decoding instruction as inside / outside an
 * unconfident branch slice.
 */

#ifndef PUBS_PUBS_SLICE_UNIT_HH
#define PUBS_PUBS_SLICE_UNIT_HH

#include "pubs/brslice_tab.hh"
#include "pubs/conf_tab.hh"
#include "pubs/def_tab.hh"
#include "pubs/params.hh"
#include "trace/dyninst.hh"

namespace pubs::pubs
{

/** Decode-time classification of one instruction. */
struct SliceDecision
{
    /** Predicted member of some branch slice (including the branch). */
    bool inBranchSlice = false;
    /** Member of an *unconfident* branch slice — the PUBS trigger. */
    bool unconfident = false;
};

class SliceUnit
{
  public:
    explicit SliceUnit(const PubsParams &params);

    /**
     * Process one decoding instruction: performs the def_tab /
     * brslice_tab bookkeeping and returns the classification.
     */
    SliceDecision decode(const trace::DynInst &inst);

    /**
     * Train the confidence counter of the conditional branch at @p pc
     * with its prediction outcome (called at branch resolution).
     */
    void branchResolved(Pc pc, bool correctPrediction);

    // --- statistics (Fig. 11's unconfident-branch-rate line) ---
    uint64_t dynamicBranches() const { return dynamicBranches_; }
    uint64_t unconfidentBranches() const { return unconfidentBranches_; }
    uint64_t sliceInsts() const { return sliceInsts_; }
    uint64_t unconfidentSliceInsts() const { return unconfidentSliceInsts_; }

    double
    unconfidentBranchRate() const
    {
        return dynamicBranches_ == 0
                   ? 0.0
                   : (double)unconfidentBranches_ / (double)dynamicBranches_;
    }

    ConfTab &confTab() { return confTab_; }
    const ConfTab &confTab() const { return confTab_; }

    /** Checkpoint all three tables plus the slice statistics. */
    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

  private:
    /** Propagate the conf pointer to the producers of @p inst's sources. */
    void linkProducers(const trace::DynInst &inst, const TableKey &confPtr);

    PubsParams params_;
    BrsliceTab brsliceTab_;
    ConfTab confTab_;
    DefTab defTab_;

    uint64_t dynamicBranches_ = 0;
    uint64_t unconfidentBranches_ = 0;
    uint64_t sliceInsts_ = 0;
    uint64_t unconfidentSliceInsts_ = 0;
};

} // namespace pubs::pubs

#endif // PUBS_PUBS_SLICE_UNIT_HH
