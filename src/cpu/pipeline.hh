/**
 * @file
 * The cycle-level out-of-order core model.
 *
 * Stages: fetch -> (frontendDepth-cycle in-order front end, where branch
 * prediction and the PUBS slice unit operate) -> rename/dispatch ->
 * wakeup/select issue from the IQ -> execute -> commit.
 *
 * Misprediction modelling (see DESIGN.md): after a mispredicted branch,
 * fetch follows the predicted path through the static program until the
 * branch completes execution; the wrong-path instructions are then
 * squashed and fetch resumes on the correct path after the
 * state-recovery penalty. The interval from the branch's fetch to its
 * execution completion is exactly the paper's *misspeculation penalty*;
 * PUBS shortens the IQ-waiting portion of it by dispatching
 * unconfident-branch-slice instructions into the reserved priority
 * entries at the head of the IQ.
 */

#ifndef PUBS_CPU_PIPELINE_HH
#define PUBS_CPU_PIPELINE_HH

#include <array>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "branch/btb.hh"
#include "branch/perceptron.hh"
#include "branch/ras.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/slab.hh"
#include "common/stats.hh"
#include "cpu/cpi_stack.hh"
#include "cpu/event_wheel.hh"
#include "cpu/fu_pool.hh"
#include "cpu/lsq.hh"
#include "cpu/params.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "iq/age_matrix.hh"
#include "iq/issue_queue.hh"
#include "mem/memory_system.hh"
#include "pubs/mode_switch.hh"
#include "pubs/slice_unit.hh"
#include "trace/dyninst.hh"

namespace pubs::sim
{
class CommitChecker;
} // namespace pubs::sim

namespace pubs::emu
{
class Emulator;
} // namespace pubs::emu

namespace pubs::trace
{
class PipeViewWriter;
} // namespace pubs::trace

namespace pubs::cpu
{

class CoreTelemetry;

/** Counters the benches and tests read out. */
struct PipelineStats
{
    uint64_t cycles = 0;
    uint64_t committed = 0;
    uint64_t fetched = 0;

    uint64_t condBranches = 0;
    uint64_t condMispredicts = 0;
    uint64_t indirectJumps = 0;
    uint64_t indirectMispredicts = 0;
    uint64_t btbMissBubbles = 0;

    uint64_t llcMisses = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;

    uint64_t priorityDispatches = 0;
    uint64_t normalDispatches = 0;
    uint64_t priorityStallCycles = 0; ///< dispatch blocked on priority entry
    uint64_t iqFullStallCycles = 0;
    uint64_t robFullStallCycles = 0;

    uint64_t issueConflictCycles = 0; ///< ready inst left unissued
    uint64_t issued = 0;

    /** Sum/count of fetch-to-execution-completion cycles of mispredicted
     *  branches: the misspeculation penalty. */
    uint64_t misspecPenaltySum = 0;
    uint64_t misspecPenaltyCount = 0;

    uint64_t wrongPathFetched = 0; ///< wrong-path instructions fetched
    uint64_t squashed = 0;         ///< wrong-path instructions squashed

    /** Sum of IQ waiting cycles of issued instructions. */
    uint64_t iqWaitSum = 0;

    // Lockstep checker / structural audit results (cpu/audit.hh,
    // sim/checker.hh); all zero when the checks are off.
    uint64_t checkerCommits = 0;
    uint64_t checkerDivergences = 0;
    uint64_t auditsRun = 0;
    uint64_t auditViolations = 0;

    /**
     * Top-down cycle accounting: every cycle charged to exactly one
     * exclusive component (cpu/cpi_stack.hh). cpi.total() == cycles is
     * a structural invariant enforced by the auditor.
     */
    CpiStack cpi;

    /** Distribution of misspeculation penalties. Log2 buckets: LLC-miss
     *  bound penalties run to thousands of cycles, which saturated any
     *  linear range small enough to keep short penalties resolved. */
    Histogram misspecPenalty{24, 1, BucketScale::Log2};
    /** Per-cycle IQ occupancy distribution (entry buckets). */
    Histogram iqOccupancy{256};
    /** Dispatch-to-issue wait of issued instructions (log2 buckets, for
     *  the same long tail as misspecPenalty). */
    Histogram iqWait{24, 1, BucketScale::Log2};

    double ipc() const
    {
        return cycles ? (double)committed / (double)cycles : 0.0;
    }

    double
    branchMpki() const
    {
        uint64_t mispredicts = condMispredicts + indirectMispredicts;
        return committed ? (double)mispredicts * 1000.0 / (double)committed
                         : 0.0;
    }

    double
    llcMpki() const
    {
        return committed ? (double)llcMisses * 1000.0 / (double)committed
                         : 0.0;
    }

    double
    avgMisspecPenalty() const
    {
        return misspecPenaltyCount
                   ? (double)misspecPenaltySum / (double)misspecPenaltyCount
                   : 0.0;
    }

    double
    avgIqWait() const
    {
        return issued ? (double)iqWaitSum / (double)issued : 0.0;
    }

    /**
     * The field list: calls @p visit once per field, on that field of
     * every one of @p stats (PipelineStats, const or not, walked in
     * step), in sweep-row payload order — the scalar counters, the three
     * histograms, then the CPI stack. The sweep-row codec and the
     * sampled-window merge walk this list, so a field left off it is
     * neither carried across processes and journals nor merged.
     */
    template <typename Visit, typename... Stats>
    static void
    forEachField(Visit &&visit, Stats &...stats)
    {
        visit(stats.cycles...);
        visit(stats.committed...);
        visit(stats.fetched...);
        visit(stats.condBranches...);
        visit(stats.condMispredicts...);
        visit(stats.indirectJumps...);
        visit(stats.indirectMispredicts...);
        visit(stats.btbMissBubbles...);
        visit(stats.llcMisses...);
        visit(stats.l1dAccesses...);
        visit(stats.l1dMisses...);
        visit(stats.priorityDispatches...);
        visit(stats.normalDispatches...);
        visit(stats.priorityStallCycles...);
        visit(stats.iqFullStallCycles...);
        visit(stats.robFullStallCycles...);
        visit(stats.issueConflictCycles...);
        visit(stats.issued...);
        visit(stats.misspecPenaltySum...);
        visit(stats.misspecPenaltyCount...);
        visit(stats.wrongPathFetched...);
        visit(stats.squashed...);
        visit(stats.iqWaitSum...);
        visit(stats.checkerCommits...);
        visit(stats.checkerDivergences...);
        visit(stats.auditsRun...);
        visit(stats.auditViolations...);
        visit(stats.misspecPenalty...);
        visit(stats.iqOccupancy...);
        visit(stats.iqWait...);
        visit(stats.cpi...);
    }
};

class Pipeline
{
  public:
    Pipeline(const CoreParams &params, trace::InstSource &source);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /**
     * Run until @p maxInsts more instructions commit or the source is
     * exhausted (and the pipeline drains).
     * @return instructions committed by this call.
     */
    uint64_t run(uint64_t maxInsts);

    /**
     * Consume up to @p insts instructions from the source without
     * simulating any timing, while functionally warming the
     * microarchitectural state the detailed model trains in its in-order
     * front end: caches (via the cycle-free warm-access path), the
     * branch predictor, BTB, RAS, and — when PUBS is configured — the
     * slice unit tables and the mode switch.
     *
     * Only legal on a pristine pipeline (nothing fetched, cycle 0):
     * the warm path deliberately creates no cycle-coupled state, so
     * fast-forwarding a+b instructions is byte-identical to
     * fast-forwarding a, checkpointing, restoring, and fast-forwarding
     * b. Throws CheckpointError if the pipeline has already run.
     *
     * @return instructions consumed (less than @p insts only when the
     *         source is exhausted).
     */
    uint64_t functionalFastForward(uint64_t insts);

    /**
     * Serialize the warm microarchitectural state (memory hierarchy,
     * predictor, BTB, RAS, PUBS tables, wrong-path address
     * approximations). Architectural state lives in the emulator and is
     * serialized by the checkpoint container, not here. Only legal on a
     * pristine pipeline — see functionalFastForward.
     */
    void serialize(Serializer &s) const;

    /** Restore state captured by serialize(). Same pristine rule. */
    void unserialize(Deserializer &d);

    /**
     * Re-seed the lockstep checker's private emulator from @p ref after
     * a fast-forward or checkpoint restore, so commit checking resumes
     * from the restored architectural state. No-op without a checker.
     */
    void resyncChecker(const emu::Emulator &ref);

    /** Zero the measurement counters (tables stay trained): warmup. */
    void resetStats();

    const PipelineStats &stats() const { return stats_; }
    Cycle now() const { return now_; }
    bool drained() const;

    const CoreParams &params() const { return params_; }
    const mem::MemorySystem &memory() const { return *mem_; }
    const pubs::SliceUnit *sliceUnit() const { return sliceUnit_.get(); }
    const pubs::ModeSwitch *modeSwitch() const { return modeSwitch_.get(); }

    /** Summarise into a stat group for reporting. */
    void fillStats(StatGroup &group) const;

    /**
     * Publish the full observability picture into @p registry: the
     * "pipeline" group (fillStats plus histograms), plus "iq", "mem",
     * "pubs" / "pubs.conf_tab", and — when telemetry is enabled —
     * "pubs.telemetry", "branch_profile" and "heartbeat".
     */
    void fillRegistry(StatRegistry &registry) const;

    /**
     * Attach an O3PipeView trace writer: every instruction's stage
     * cycles are stamped and written at retire/squash. Pass before
     * running; null detaches.
     */
    void attachPipeView(std::unique_ptr<trace::PipeViewWriter> writer);

    /** The attached pipeview writer, if any. */
    const trace::PipeViewWriter *pipeView() const { return pipeview_.get(); }

    /** Telemetry collector (null unless CoreParams::telemetry). */
    const CoreTelemetry *telemetry() const { return telemetry_.get(); }

    /** The lockstep checker, if one is attached (null otherwise). */
    const sim::CommitChecker *checker() const { return checker_.get(); }

    /**
     * Human-readable snapshot of the machine state (ROB/IQ/LSQ
     * occupancy, rename headroom, fetch state) appended to checker and
     * audit diagnostics.
     */
    std::string debugSnapshot() const;

  private:
    friend class Auditor;

    /**
     * Data-oriented in-flight layout (DESIGN.md §13). Per-instruction
     * state is split into three dense per-slot arrays indexed by
     * clientId, so the fields wakeup/select/issue/commit touch every
     * cycle share one cache line per instruction instead of dragging
     * the whole trace payload through the LLC:
     *
     *  - hot_  (InflightHot, one 64-byte slot): sequence number, stage
     *    flags, renamed registers, FU class, PUBS priority bit and the
     *    cycle fields the scheduler reads;
     *  - deps_ (InflightDeps): the wakeup scoreboard's registered
     *    consumers, touched only at register/wake time;
     *  - cold_ (InflightCold): the trace payload, slice decision and
     *    telemetry stamps, read at most a handful of times per
     *    instruction (dispatch, issue, commit).
     *
     * hot_.seq/op and the PUBS priority bit deliberately duplicate
     * cold state; the structural auditor and debug asserts at dispatch
     * and commit check the copies agree.
     */
    struct InflightHot
    {
        SeqNum seq = 0;
        Cycle feReadyCycle = 0; ///< earliest dispatch cycle
        Cycle dispatchCycle = 0;
        Cycle doneCycle = 0;
        uint64_t lsqPos = 0; ///< LSQ position handle (when inLsq)

        // Rename.
        PhysRegId physSrc1 = invalidPhysReg;
        PhysRegId physSrc2 = invalidPhysReg;
        PhysRegId physDst = invalidPhysReg;
        PhysRegId prevPhysDst = invalidPhysReg;
        isa::RegClass src1Cls = isa::RegClass::None;
        isa::RegClass src2Cls = isa::RegClass::None;
        isa::RegClass dstCls = isa::RegClass::None;

        /** Opcode copy (cold_[id].di.op): FU class and load/store
         *  tests on the select path without a cold-array read. */
        isa::Opcode op = isa::Opcode::Nop;

        uint8_t iqIndex = 0; ///< which queue holds it (distributed IQ)
        /** Deepest miss level of an issued load: 0 = L1 hit / forward,
         *  1 = L1 miss filled by the L2, 2 = LLC miss (DRAM). Drives the
         *  memory split of the CPI stack. */
        uint8_t missLevel = 0;
        /** Source operands still outstanding (wakeup scoreboard). */
        uint8_t pendingOps = 0;

        bool valid : 1 = false;
        bool dispatched : 1 = false;
        bool inIq : 1 = false;
        bool issued : 1 = false;
        bool inLsq : 1 = false;
        bool priorityEntry : 1 = false;
        bool isMispredict : 1 = false;
        bool condPredictionCorrect : 1 = false;
        bool wrongPath : 1 = false; ///< fetched past an unresolved mispredict
        /** Found in the true backward slice of a resolved misprediction
         *  (telemetry ground truth for the PUBS slice predictor). */
        bool trueSlice : 1 = false;
        /** PUBS priority bit (cold_[id].slice.unconfident). */
        bool sliceUnconfident : 1 = false;
    };

    /**
     * Wakeup-scoreboard dependent records (see DESIGN.md
     * "Host-performance architecture"): the registered consumers to
     * wake when this instruction's result is scheduled. Overflow
     * dependents chain through the slab pool; entries are (id, seq)
     * pairs validated lazily, so squashes never search these lists.
     */
    struct InflightDeps
    {
        static constexpr size_t inlineDeps = 4;
        std::array<uint32_t, inlineDeps> ids{};
        std::array<SeqNum, inlineDeps> seqs{};
        uint8_t count = 0; ///< dependents in the inline array
        uint32_t overflow = UINT32_MAX; ///< slab chain head
    };

    /** Everything read at most a few times per instruction. */
    struct InflightCold
    {
        trace::DynInst di{};
        pubs::SliceDecision slice{};
        Cycle fetchCycle = 0;
    };

    /** Why dispatch would stall this cycle (stat accounting). The
     *  legacy stall counters only increment for the first three; the
     *  LSQ/rename reasons exist for CPI-stack attribution. */
    enum class DispatchBlock : uint8_t
    {
        None,          ///< head can dispatch
        RobFull,
        IqFull,
        PriorityStall,
        LsqFull,       ///< blocked, but no stall counter increments
        RenameFull,    ///< blocked, but no stall counter increments
    };

    /** What last suspended fetch (fetchSuspendedUntil_); classification
     *  only, never consulted by the timing model. */
    enum class SuspendReason : uint8_t
    {
        None,
        ICache,   ///< i-cache miss refill
        Btb,      ///< BTB-miss bubble
        Recovery, ///< post-squash state-recovery penalty
    };

    /** Scheduled conf_tab training at branch-resolution time. */
    struct ConfEvent
    {
        Cycle cycle;
        Pc pc;
        bool correct;

        bool operator>(const ConfEvent &o) const { return cycle > o.cycle; }
    };

    void cycle();
    void runAudit(const char *context);
    void doCommit();
    void applyConfEvents();
    void processSquashes();
    void doIssue();
    void doDispatch();
    void doFetch();

    /** Handle control flow of a just-fetched correct-path instruction. */
    void fetchControl(InflightHot &hot, const trace::DynInst &di,
                      bool &endGroup, bool &btbBubble);

    /** Synthesise the next wrong-path instruction from the static
     *  program; returns false when wrong-path fetch must stop. */
    bool makeWrongPathInst(trace::DynInst &out);

    /** Squash everything younger than @p branchId (ROB tail walk). */
    void squashYoungerThan(uint32_t branchId);

    bool srcsReady(const InflightHot &hot, Cycle &readyAt) const;
    void issueInst(uint32_t id);

    /**
     * Telemetry: walk the true dynamic backward slice of the resolved
     * mispredicted branch @p branchId through the older ROB entries,
     * marking members and scoring the PUBS slice prediction against
     * them.
     */
    void traceTrueSlice(uint32_t branchId);

    /** Emit a squashed instruction's pipeview record and mark it. */
    void recordSquashed(uint32_t id);
    void issueFromQueue(iq::IssueQueue &queue, bool useAgeMatrix,
                        unsigned &grants);
    iq::IssueQueue &queueFor(const trace::DynInst &di);
    Cycle regReadyCycle(isa::RegClass cls, PhysRegId reg) const;
    void setRegReady(isa::RegClass cls, PhysRegId reg, Cycle cycle);

    /** Debug-only hot/cold agreement check (dispatch and commit). */
    void assertHotColdAgree(uint32_t id) const;

    CoreParams params_;
    trace::InstSource &source_;
    /** The source's static program: wrong-path fetch reads it. */
    const isa::Program &program_;

    std::unique_ptr<mem::MemorySystem> mem_;
    std::unique_ptr<branch::Perceptron> predictor_;
    std::unique_ptr<branch::Btb> btb_;
    std::unique_ptr<branch::Ras> ras_;
    /** One queue (unified) or one per FU group (distributed). */
    std::vector<std::unique_ptr<iq::IssueQueue>> iqs_;
    std::unique_ptr<iq::AgeMatrix> ageMatrix_;
    std::unique_ptr<pubs::SliceUnit> sliceUnit_;
    std::unique_ptr<pubs::ModeSwitch> modeSwitch_;
    std::unique_ptr<sim::CommitChecker> checker_;
    std::unique_ptr<CoreTelemetry> telemetry_;
    std::unique_ptr<trace::PipeViewWriter> pipeview_;
    CheckPolicy checkPolicy_ = CheckPolicy::Off;
    CheckPolicy auditPolicy_ = CheckPolicy::Off;
    RenameUnit rename_;
    Rob rob_;
    Lsq lsq_;
    FuPool fuPool_;
    Rng rng_;

    // Physical register ready cycles.
    std::vector<Cycle> intRegReady_;
    std::vector<Cycle> fpRegReady_;

    // In-flight instructions, indexed by clientId; free slots are
    // recycled through freeIds_. Parallel SoA slices — see the layout
    // comment above InflightHot.
    std::vector<InflightHot> hot_;
    std::vector<InflightDeps> deps_;
    std::vector<InflightCold> cold_;
    std::vector<uint32_t> freeIds_;

    // In-order front-end queue of clientIds awaiting dispatch.
    std::deque<uint32_t> frontendQueue_;
    size_t frontendCapacity_;

    // Fetch state.
    Cycle now_ = 0;
    Cycle fetchSuspendedUntil_ = 0;
    SuspendReason suspendReason_ = SuspendReason::None;
    bool sourceExhausted_ = false;
    bool haltCommitted_ = false;
    bool havePending_ = false;
    trace::DynInst pending_{};
    uint64_t fetchCounter_ = 0;
    uint64_t fetchSeq_ = 0;
    uint64_t runTarget_ = UINT64_MAX;

    // Wrong-path fetch state (active between the fetch of a mispredicted
    // branch and its resolution).
    bool wrongPathActive_ = false;
    Pc wrongPathPc_ = 0;

    /** Last effective address seen per static memory instruction, used
     *  to approximate wrong-path load/store addresses. Indexed by the
     *  instruction's program index (programs are dense from basePc);
     *  0 means "never seen", which the wrong-path replay already treats
     *  the same as an absent entry. */
    std::vector<Addr> lastMemAddr_;

    /** Scheduled squashes: (resolution cycle, mispredicted branch id). */
    struct SquashEvent
    {
        Cycle cycle;
        uint32_t branchId;
        bool operator>(const SquashEvent &o) const
            { return cycle > o.cycle; }
    };
    std::priority_queue<SquashEvent, std::vector<SquashEvent>,
                        std::greater<SquashEvent>>
        squashEvents_;

    /**
     * Post-commit store buffer: committed stores whose data can still
     * forward to younger loads while the cache write drains.
     */
    static constexpr size_t recentStoreDepth = 32;
    StoreBuffer recentStores_{recentStoreDepth};

    std::priority_queue<ConfEvent, std::vector<ConfEvent>,
                        std::greater<ConfEvent>>
        confEvents_;

    // Scratch for the age matrix ready mask.
    std::vector<uint64_t> readyMask_;

    // Per-cycle CPI-stack classification signals, reset at the top of
    // cycle() and captured by doDispatch(); midCycle_ marks the span
    // between cycle-count increment and classification so the auditor
    // knows whether the current cycle has been attributed yet.
    bool cycleDispatched_ = false;
    bool cycleDispatchedCorrect_ = false;
    DispatchBlock cycleBlock_ = DispatchBlock::None;
    bool midCycle_ = false;
    /** Mode-switch state last cycle, for transition detection. */
    bool lastPubsEnabled_ = true;

    // --- Event-driven scheduling state ---

    /** Overflow block for a producer's dependent list. */
    struct DepNode
    {
        static constexpr size_t fanout = 6;
        std::array<uint32_t, fanout> ids{};
        std::array<SeqNum, fanout> seqs{};
        uint8_t n = 0;
        uint32_t next = UINT32_MAX;
    };

    /** Cycle-bucketed schedule of operand-ready / load-recheck events. */
    EventWheel wheel_;
    SlabPool<DepNode> depPool_;

    /** Producing instruction id per physical register (UINT32_MAX when
     *  the value is not owned by an in-flight producer). Paired with
     *  the producer's seq so stale entries are ignored. */
    std::vector<uint32_t> intRegProducer_, fpRegProducer_;
    std::vector<SeqNum> intRegProducerSeq_, fpRegProducerSeq_;

    /** Loads excluded from the ready bitmap because an older overlapping
     *  store has not executed; re-checked when a store issues. */
    std::vector<std::pair<uint32_t, SeqNum>> memBlockedLoads_;
    Cycle loadRecheckCycle_ = 0; ///< cycle of the pending recheck event

    static constexpr Cycle maxSkipSpan = 4096;

    /**
     * CPI-stack attribution of a cycle in which no correct-path
     * instruction dispatched; @p block is why dispatch stopped (None
     * when the front end simply had nothing ready). Shared between the
     * executed-cycle path and the bulk fast-forward path, whose
     * classification inputs are constant over the skipped span.
     */
    CpiComponent classifyStallCycle(DispatchBlock block) const;

    /** Root-cause chase for a backend stall: reattribute to the ROB
     *  head's outstanding miss / unresolved mispredict, else keep
     *  @p fallback. */
    CpiComponent chaseRobHead(CpiComponent fallback) const;

    void onWheelEvent(EventWheel::Kind kind, uint32_t a, uint64_t b);
    void setupScoreboard(uint32_t id);
    void registerDependent(uint32_t producerId, uint32_t id, SeqNum seq);
    void wakeDependents(uint32_t producerId, Cycle done);
    void releaseDeps(uint32_t id);
    void scheduleLoadRecheck();
    DispatchBlock dispatchBlockReason() const;
    bool fetchCanProgress() const;
    Cycle nextWorkCycle() const;
    void fastForward(Cycle to);
    void requirePristine(const char *what) const;
    const iq::IssueQueue &queueFor(const trace::DynInst &di) const;
    uint32_t &regProducer(isa::RegClass cls, PhysRegId reg);
    SeqNum &regProducerSeq(isa::RegClass cls, PhysRegId reg);

    PipelineStats stats_;
};

} // namespace pubs::cpu

#endif // PUBS_CPU_PIPELINE_HH
