#include "cpu/pipeline.hh"

#include <algorithm>
#include <sstream>

#include "common/bits.hh"
#include "common/error.hh"
#include "common/hints.hh"
#include "common/logging.hh"
#include "cpu/audit.hh"
#include "cpu/telemetry.hh"
#include "isa/program.hh"
#include "iq/circular_queue.hh"
#include "iq/random_queue.hh"
#include "iq/shifting_queue.hh"
#include "sim/checker.hh"
#include "trace/pipeview.hh"

namespace pubs::cpu
{

using isa::OpClass;
using isa::Opcode;

// Every structural constraint lives in CoreParams::validate(), which
// throws a ConfigError listing all problems at once, before any
// component below is built from the configuration.
Pipeline::Pipeline(const CoreParams &params, trace::InstSource &source)
    : params_((params.validate(), params)),
      source_(source),
      program_(source.program()),
      rename_(params.intPhysRegs, params.fpPhysRegs),
      rob_(params.robEntries),
      lsq_(params.lsqEntries),
      fuPool_(params.numIntAlu, params.numIntMulDiv, params.numLdSt,
              params.numFpu),
      rng_(params.seed)
{
    mem_ = std::make_unique<mem::MemorySystem>(params.memory);
    predictor_ = branch::makePredictor(params.predictor);
    btb_ = std::make_unique<branch::Btb>(params.btbSets, params.btbWays);
    ras_ = std::make_unique<branch::Ras>(params.rasDepth);

    unsigned priorityEntries =
        params.usePubs ? params.pubs.priorityEntries : 0;
    if (params.distributedIq) {
        // Section III-C2: one sub-queue per FU group, each with its own
        // priority partition.
        unsigned perQueue = params.iqEntries / (unsigned)FuType::NumTypes;
        for (unsigned q = 0; q < (unsigned)FuType::NumTypes; ++q) {
            // Branch slices live almost entirely on the iALU and Ld/St
            // queues (compares, address arithmetic, feeding loads), so
            // those get the bulk of the reserved entries; the others
            // keep a single entry so stray FP/mul slice members cannot
            // deadlock the stall policy.
            unsigned perQueuePriority = 0;
            if (priorityEntries > 0) {
                bool sliceHeavy = (FuType)q == FuType::IntAlu ||
                                  (FuType)q == FuType::LdSt;
                perQueuePriority =
                    sliceHeavy ? std::max(1u, priorityEntries / 2) : 1;
            }
            iqs_.push_back(std::make_unique<iq::RandomQueue>(
                perQueue, perQueuePriority, params.seed + 0x51c3 + q));
        }
    } else {
        switch (params.iqKind) {
          case iq::IqKind::Random:
            iqs_.push_back(std::make_unique<iq::RandomQueue>(
                params.iqEntries, priorityEntries, params.seed + 0x51c3));
            break;
          case iq::IqKind::Shifting:
            iqs_.push_back(
                std::make_unique<iq::ShiftingQueue>(params.iqEntries));
            break;
          case iq::IqKind::Circular:
            iqs_.push_back(
                std::make_unique<iq::CircularQueue>(params.iqEntries));
            break;
        }
        if (params.ageMatrix)
            ageMatrix_ = std::make_unique<iq::AgeMatrix>(params.iqEntries);
    }
    if (params.usePubs) {
        sliceUnit_ = std::make_unique<pubs::SliceUnit>(params.pubs);
        modeSwitch_ = std::make_unique<pubs::ModeSwitch>(params.pubs);
    }

    intRegReady_.assign(params.intPhysRegs, 0);
    fpRegReady_.assign(params.fpPhysRegs, 0);
    intRegProducer_.assign(params.intPhysRegs, UINT32_MAX);
    fpRegProducer_.assign(params.fpPhysRegs, UINT32_MAX);
    intRegProducerSeq_.assign(params.intPhysRegs, 0);
    fpRegProducerSeq_.assign(params.fpPhysRegs, 0);

    frontendCapacity_ = (size_t)params.frontendDepth * params.fetchWidth;
    size_t slots = params.robEntries + frontendCapacity_ + 8;
    hot_.assign(slots, InflightHot{});
    deps_.assign(slots, InflightDeps{});
    cold_.assign(slots, InflightCold{});
    freeIds_.reserve(slots);
    for (size_t i = slots; i > 0; --i)
        freeIds_.push_back((uint32_t)(i - 1));
    readyMask_.assign((params.iqEntries + 63) / 64, 0);
    lastMemAddr_.assign(program_.size(), 0);

    if (params.telemetry)
        telemetry_ = std::make_unique<CoreTelemetry>(params);

    // PUBS_CHECK in the environment overrides both configured policies.
    checkPolicy_ = checkPolicyFromEnv(params.checkPolicy);
    auditPolicy_ = checkPolicyFromEnv(params.auditPolicy);
    if (checkPolicy_ != CheckPolicy::Off)
        checker_ = std::make_unique<sim::CommitChecker>(program_);
}

Pipeline::~Pipeline() = default;

void
Pipeline::attachPipeView(std::unique_ptr<trace::PipeViewWriter> writer)
{
    pipeview_ = std::move(writer);
}

Cycle
Pipeline::regReadyCycle(isa::RegClass cls, PhysRegId reg) const
{
    return cls == isa::RegClass::Fp ? fpRegReady_[reg] : intRegReady_[reg];
}

void
Pipeline::setRegReady(isa::RegClass cls, PhysRegId reg, Cycle cycle)
{
    if (cls == isa::RegClass::Fp)
        fpRegReady_[reg] = cycle;
    else
        intRegReady_[reg] = cycle;
}

uint32_t &
Pipeline::regProducer(isa::RegClass cls, PhysRegId reg)
{
    return cls == isa::RegClass::Fp ? fpRegProducer_[reg]
                                    : intRegProducer_[reg];
}

SeqNum &
Pipeline::regProducerSeq(isa::RegClass cls, PhysRegId reg)
{
    return cls == isa::RegClass::Fp ? fpRegProducerSeq_[reg]
                                    : intRegProducerSeq_[reg];
}

void
Pipeline::onWheelEvent(EventWheel::Kind kind, uint32_t a, uint64_t b)
{
    if (PUBS_LIKELY(kind == EventWheel::Kind::OperandReady)) {
        // One pending operand of instruction (a, seq b) completed.
        // Stale deliveries — the consumer was squashed, possibly with
        // its id reallocated — are detected by the sequence number.
        InflightHot &hot = hot_[a];
        if (PUBS_UNLIKELY(!hot.valid || hot.seq != b))
            return;
        panic_if(hot.pendingOps == 0 || hot.issued,
                 "operand wakeup for inst %u with no pending operand", a);
        if (--hot.pendingOps == 0 && hot.inIq)
            iqs_[hot.iqIndex]->markReady(a);
        return;
    }

    // LoadRecheck: a store executed last cycle, so loads parked as
    // mem-blocked may have had their dependence resolve to Forward.
    // Re-expose them to select; the per-load dependence check there
    // re-parks any that are still blocked on a different store.
    for (const auto &[id, seq] : memBlockedLoads_) {
        const InflightHot &hot = hot_[id];
        if (!hot.valid || hot.seq != seq || !hot.inIq || hot.issued ||
            hot.pendingOps != 0) {
            continue; // squashed or otherwise no longer eligible
        }
        iqs_[hot.iqIndex]->markReady(id);
    }
    memBlockedLoads_.clear();
}

void
Pipeline::setupScoreboard(uint32_t id)
{
    // Classify each source operand exactly as the per-cycle rescan
    // would over the coming cycles: available now, completing at a
    // known future cycle (producer already issued -> schedule the
    // wakeup directly), or owned by a producer still waiting in the
    // window (register with it; it schedules the wakeup when it
    // issues).
    InflightHot &hot = hot_[id];
    hot.pendingOps = 0;
    auto handleSrc = [&](isa::RegClass cls, PhysRegId reg) {
        if (reg == invalidPhysReg)
            return;
        Cycle ready = regReadyCycle(cls, reg);
        if (ready <= now_)
            return;
        ++hot.pendingOps;
        if (ready == neverCycle) {
            uint32_t producerId = regProducer(cls, reg);
            panic_if(producerId == UINT32_MAX, "unready phys reg %d has "
                     "no in-flight producer", (int)reg);
            const InflightHot &producer = hot_[producerId];
            panic_if(!producer.valid ||
                         producer.seq != regProducerSeq(cls, reg) ||
                         producer.issued,
                     "stale producer %u for phys reg %d", producerId,
                     (int)reg);
            registerDependent(producerId, id, hot.seq);
        } else {
            wheel_.schedule(ready, EventWheel::Kind::OperandReady, id,
                            hot.seq, now_);
        }
    };
    handleSrc(hot.src1Cls, hot.physSrc1);
    handleSrc(hot.src2Cls, hot.physSrc2);
    if (hot.pendingOps == 0)
        iqs_[hot.iqIndex]->markReady(id);
}

void
Pipeline::registerDependent(uint32_t producerId, uint32_t id, SeqNum seq)
{
    InflightDeps &producer = deps_[producerId];
    if (producer.count < InflightDeps::inlineDeps) {
        producer.ids[producer.count] = id;
        producer.seqs[producer.count] = seq;
        ++producer.count;
        return;
    }
    uint32_t node = producer.overflow;
    if (node == SlabPool<DepNode>::npos ||
        depPool_.at(node).n == DepNode::fanout) {
        uint32_t fresh = depPool_.alloc();
        depPool_.at(fresh).next = node;
        producer.overflow = fresh;
        node = fresh;
    }
    DepNode &dn = depPool_.at(node);
    dn.ids[dn.n] = id;
    dn.seqs[dn.n] = seq;
    ++dn.n;
}

void
Pipeline::wakeDependents(uint32_t producerId, Cycle done)
{
    // Every op latency is >= 1 cycle, so the completion is strictly in
    // the future and always schedulable. Dependents are not validated
    // here; the event delivery does that (lazy cancellation).
    InflightDeps &producer = deps_[producerId];
    for (uint8_t i = 0; i < producer.count; ++i) {
        wheel_.schedule(done, EventWheel::Kind::OperandReady,
                        producer.ids[i], producer.seqs[i], now_);
    }
    producer.count = 0;
    uint32_t node = producer.overflow;
    while (node != SlabPool<DepNode>::npos) {
        DepNode &dn = depPool_.at(node);
        for (uint8_t i = 0; i < dn.n; ++i) {
            wheel_.schedule(done, EventWheel::Kind::OperandReady,
                            dn.ids[i], dn.seqs[i], now_);
        }
        uint32_t next = dn.next;
        depPool_.free(node);
        node = next;
    }
    producer.overflow = SlabPool<DepNode>::npos;
}

void
Pipeline::releaseDeps(uint32_t id)
{
    // Free the dependent records of an instruction leaving the window
    // without issuing (squash; or commit, for IQ-bypassing ops). The
    // registrations themselves need no cleanup — they die with the
    // producer, and were only reachable through it.
    InflightDeps &deps = deps_[id];
    deps.count = 0;
    uint32_t node = deps.overflow;
    while (node != SlabPool<DepNode>::npos) {
        uint32_t next = depPool_.at(node).next;
        depPool_.free(node);
        node = next;
    }
    deps.overflow = SlabPool<DepNode>::npos;
}

void
Pipeline::scheduleLoadRecheck()
{
    if (memBlockedLoads_.empty() || loadRecheckCycle_ == now_ + 1)
        return;
    loadRecheckCycle_ = now_ + 1;
    wheel_.schedule(now_ + 1, EventWheel::Kind::LoadRecheck, 0, 0, now_);
}

const iq::IssueQueue &
Pipeline::queueFor(const trace::DynInst &di) const
{
    return const_cast<Pipeline *>(this)->queueFor(di);
}

Pipeline::DispatchBlock
Pipeline::dispatchBlockReason() const
{
    // Mirror of doDispatch()'s head-of-queue blocking checks, in the
    // same order, with no side effects: used to decide whether the next
    // cycle can dispatch and which stall counter an idle cycle charges.
    uint32_t headId = frontendQueue_.front();
    const trace::DynInst &di = cold_[headId].di;
    isa::Inst staticInst{di.op, di.dst, di.src1, di.src2, 0};

    if (rob_.full())
        return DispatchBlock::RobFull;
    if (di.isMem() && lsq_.full())
        return DispatchBlock::LsqFull;
    isa::RegClass dstCls = isa::dstRegClass(staticInst);
    if (di.dst != invalidReg && dstCls != isa::RegClass::None &&
        rename_.freeRegs(dstCls) == 0) {
        return DispatchBlock::RenameFull;
    }
    if (isa::opClass(di.op) == OpClass::Nop)
        return DispatchBlock::None;

    const iq::IssueQueue &queue = queueFor(di);
    bool pubsOn = params_.usePubs && queue.priorityEntries() > 0;
    bool pubsActive = pubsOn && modeSwitch_->pubsEnabled();
    bool wantPriority = pubsActive && hot_[headId].sliceUnconfident;
    if (pubsOn && !pubsActive) {
        return queue.occupancy() >= queue.capacity() ? DispatchBlock::IqFull
                                                     : DispatchBlock::None;
    }
    if (wantPriority) {
        if (queue.canDispatch(true))
            return DispatchBlock::None;
        if (!params_.pubs.stallPolicy && queue.canDispatch(false))
            return DispatchBlock::None;
        return DispatchBlock::PriorityStall;
    }
    return queue.canDispatch(false) ? DispatchBlock::None
                                    : DispatchBlock::IqFull;
}

bool
Pipeline::fetchCanProgress() const
{
    // Would doFetch() reach the i-cache access once any suspension
    // expires? Mirrors its early exits: front end full, idling on an
    // unresolvable wrong path, or source exhausted.
    if (frontendQueue_.size() >= frontendCapacity_)
        return false;
    if (wrongPathActive_)
        return wrongPathPc_ != 0;
    return havePending_ || !sourceExhausted_;
}

Cycle
Pipeline::nextWorkCycle() const
{
    // Cheap early-outs first: anything issueable or dispatchable means
    // the next cycle has work.
    for (const auto &queue : iqs_)
        if (queue->hasReady())
            return now_ + 1;
    if (!frontendQueue_.empty()) {
        const InflightHot &head = hot_[frontendQueue_.front()];
        if (head.feReadyCycle <= now_ + 1 &&
            dispatchBlockReason() == DispatchBlock::None)
            return now_ + 1;
    }

    Cycle next = now_ + maxSkipSpan;
    auto consider = [&](Cycle cycle) {
        next = std::min(next, std::max(cycle, now_ + 1));
    };
    if (fetchCanProgress())
        consider(fetchSuspendedUntil_);
    if (!frontendQueue_.empty()) {
        const InflightHot &head = hot_[frontendQueue_.front()];
        if (head.feReadyCycle > now_)
            consider(head.feReadyCycle);
    }
    if (!rob_.empty()) {
        const InflightHot &head = hot_[rob_.head()];
        if (head.issued)
            consider(head.doneCycle); // commit wake
    }
    if (!squashEvents_.empty())
        consider(squashEvents_.top().cycle);
    if (!confEvents_.empty())
        consider(confEvents_.top().cycle);
    if (!wheel_.empty())
        consider(wheel_.nextEventCycle());
    if (telemetry_)
        consider(telemetry_->nextHeartbeat());
    if (auditPolicy_ != CheckPolicy::Off && params_.auditInterval != 0) {
        consider((now_ / params_.auditInterval + 1) *
                 params_.auditInterval);
    }
    return next;
}

void
Pipeline::fastForward(Cycle to)
{
    // Cycles (now_, to] provably change no architectural or stat state
    // except the per-cycle samples and dispatch-stall counters, whose
    // inputs are constant across the span; account them in bulk.
    uint64_t span = to - now_;
    stats_.cycles += span;

    size_t occupancy = 0;
    for (const auto &queue : iqs_)
        occupancy += queue->occupancy();
    stats_.iqOccupancy.sample(occupancy, span);
    if (telemetry_) {
        size_t priorityOccupancy = 0;
        for (const auto &queue : iqs_)
            priorityOccupancy += queue->priorityOccupancy();
        telemetry_->noteCycles(occupancy, priorityOccupancy, span);
    }

    DispatchBlock block = DispatchBlock::None;
    if (!frontendQueue_.empty() &&
        hot_[frontendQueue_.front()].feReadyCycle <= now_) {
        block = dispatchBlockReason();
        switch (block) {
          case DispatchBlock::RobFull:
            stats_.robFullStallCycles += span;
            break;
          case DispatchBlock::IqFull:
            stats_.iqFullStallCycles += span;
            break;
          case DispatchBlock::PriorityStall:
            stats_.priorityStallCycles += span;
            break;
          default:
            break;
        }
    }
    // No dispatch or commit can occur inside the skipped span, so the
    // classification inputs are constant: attribute the whole span to
    // one component in one call.
    stats_.cpi.add(classifyStallCycle(block), span);
    now_ = to;
}

CpiComponent
Pipeline::chaseRobHead(CpiComponent fallback) const
{
    if (rob_.empty())
        return fallback;
    const InflightHot &head = hot_[rob_.head()];
    if (head.issued && head.doneCycle > now_) {
        if (head.missLevel == 2)
            return CpiComponent::MemDram;
        if (head.missLevel == 1)
            return CpiComponent::MemL2;
        if (head.isMispredict)
            return CpiComponent::BranchMisspec;
    }
    return fallback;
}

CpiComponent
Pipeline::classifyStallCycle(DispatchBlock block) const
{
    // The priority-entry stall is the cost the paper's stall policy
    // introduces — the component this repo exists to measure — so it is
    // never reattributed to a deeper cause.
    switch (block) {
      case DispatchBlock::PriorityStall:
        return CpiComponent::PriorityStall;
      case DispatchBlock::RobFull:
        return chaseRobHead(CpiComponent::RobFull);
      case DispatchBlock::IqFull:
        return chaseRobHead(CpiComponent::IqFull);
      case DispatchBlock::LsqFull:
        return chaseRobHead(CpiComponent::LsqFull);
      case DispatchBlock::RenameFull:
        return chaseRobHead(CpiComponent::RenameFull);
      case DispatchBlock::None:
        break;
    }

    // Nothing was dispatchable. A live backend means the ROB head is
    // the critical resource; otherwise the front end is starved, and
    // the starvation cause decides the component.
    if (!rob_.empty())
        return chaseRobHead(CpiComponent::Execute);
    if (wrongPathActive_)
        return CpiComponent::BranchMisspec;
    if (now_ < fetchSuspendedUntil_ &&
        suspendReason_ == SuspendReason::Recovery) {
        return CpiComponent::BranchRecovery;
    }
    return CpiComponent::Frontend;
}

bool
Pipeline::drained() const
{
    return sourceExhausted_ && !havePending_ && frontendQueue_.empty() &&
           rob_.empty();
}

uint64_t
Pipeline::run(uint64_t maxInsts)
{
    uint64_t startCommitted = stats_.committed;
    uint64_t target = startCommitted + maxInsts;
    runTarget_ = target;
    uint64_t lastCommitted = stats_.committed;
    Cycle lastProgress = now_;

    while (stats_.committed < target && !drained()) {
        // Event-driven advance: when no stage can possibly do work next
        // cycle, jump straight to the next scheduled event, bulk-
        // accounting the skipped cycles' per-cycle stats on the way.
        Cycle next = nextWorkCycle();
        if (next > now_ + 1)
            fastForward(next - 1);
        ++now_;
        ++stats_.cycles;
        cycle();

        if (stats_.committed != lastCommitted) {
            lastCommitted = stats_.committed;
            lastProgress = now_;
        } else if (now_ - lastProgress > 1000000) {
            panic("pipeline made no progress for 1M cycles "
                  "(committed=%llu rob=%zu iq=%zu)",
                  (unsigned long long)stats_.committed, rob_.occupancy(),
                  iqs_[0]->occupancy());
        }
    }
    return stats_.committed - startCommitted;
}

void
Pipeline::requirePristine(const char *what) const
{
    if (now_ != 0 || fetchCounter_ != 0 || havePending_ ||
        !frontendQueue_.empty() || !rob_.empty()) {
        throw CheckpointError(std::string(what) +
                              " requires a pristine pipeline (nothing "
                              "fetched, cycle 0); run detailed simulation "
                              "only after fast-forward and restore");
    }
}

uint64_t
Pipeline::functionalFastForward(uint64_t insts)
{
    requirePristine("functional fast-forward");

    // Mirrors the training the detailed model performs in its in-order
    // front end (fetchControl) and at commit, minus anything coupled to
    // cycle time. One deliberate difference: confidence training that
    // the detailed path defers to branch completion (confEvents_) is
    // applied immediately here — with no timing there is no completion
    // cycle, and the table sees the same updates in the same order.
    uint64_t consumed = 0;
    trace::DynInst di;
    while (consumed < insts && source_.next(di)) {
        ++consumed;
        mem_->warmFetch(di.pc);

        if (di.isMem()) {
            lastMemAddr_[program_.indexOf(di.pc)] = di.effAddr;
            mem::DataAccess res = mem_->warmData(di.effAddr, di.isStore());
            if (res.llcMiss && modeSwitch_)
                modeSwitch_->noteLlcMiss();
        }

        if (sliceUnit_)
            sliceUnit_->decode(di);

        if (di.isCondBranch()) {
            bool predTaken = predictor_->predict(di.pc);
            predictor_->update(di.pc, di.taken);
            if (di.taken)
                btb_->update(di.pc, di.nextPc);
            if (sliceUnit_)
                sliceUnit_->branchResolved(di.pc, predTaken == di.taken);
        } else if (di.op == Opcode::J || di.op == Opcode::Jal) {
            btb_->update(di.pc, di.nextPc);
            if (di.op == Opcode::Jal)
                ras_->push(di.pc + instBytes);
        } else if (di.op == Opcode::Jr) {
            ras_->pop();
        }

        if (modeSwitch_)
            modeSwitch_->noteCommit();
    }
    return consumed;
}

void
Pipeline::serialize(Serializer &s) const
{
    requirePristine("checkpoint save");
    s.beginObject("pipeline");
    mem_->serialize(s);
    predictor_->serialize(s);
    btb_->serialize(s);
    ras_->serialize(s);
    s.boolean(sliceUnit_ != nullptr);
    if (sliceUnit_)
        sliceUnit_->serialize(s);
    s.boolean(modeSwitch_ != nullptr);
    if (modeSwitch_)
        modeSwitch_->serialize(s);
    writeTable(s, lastMemAddr_);
    s.endObject("pipeline");
}

void
Pipeline::unserialize(Deserializer &d)
{
    requirePristine("checkpoint restore");
    d.beginObject("pipeline");
    mem_->unserialize(d);
    predictor_->unserialize(d);
    btb_->unserialize(d);
    ras_->unserialize(d);
    bool hasSlice = d.boolean();
    if (hasSlice != (sliceUnit_ != nullptr)) {
        throw CheckpointError("checkpoint PUBS slice-unit presence does "
                              "not match this configuration");
    }
    if (sliceUnit_)
        sliceUnit_->unserialize(d);
    bool hasMode = d.boolean();
    if (hasMode != (modeSwitch_ != nullptr)) {
        throw CheckpointError("checkpoint mode-switch presence does not "
                              "match this configuration");
    }
    if (modeSwitch_)
        modeSwitch_->unserialize(d);
    readTable(d, lastMemAddr_, "wrong-path address approximations");
    d.endObject("pipeline");
}

void
Pipeline::resyncChecker(const emu::Emulator &ref)
{
    if (checker_)
        checker_->resyncFrom(ref);
}

void
Pipeline::resetStats()
{
    stats_ = PipelineStats{};
    if (modeSwitch_)
        lastPubsEnabled_ = modeSwitch_->pubsEnabled();
    if (telemetry_)
        telemetry_->resetStats(now_);
}

void
Pipeline::cycle()
{
    // The cycle is unattributed until the end-of-cycle CPI-stack
    // classification below; the auditor accounts for the gap when it
    // runs mid-cycle (post-squash).
    midCycle_ = true;
    cycleDispatched_ = false;
    cycleDispatchedCorrect_ = false;
    cycleBlock_ = DispatchBlock::None;

    // Deliver this cycle's wakeup events before any stage runs, so the
    // ready bitmaps the select logic reads match what a full rescan of
    // regReadyCycle would conclude at this cycle.
    wheel_.drain(now_, [this](const EventWheel::Event &event) {
        onWheelEvent(event.kind, event.a, event.b);
    });
    applyConfEvents();
    processSquashes();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();

    // Top-down attribution: a correct-path dispatch makes the cycle
    // useful; wrong-path-only dispatch is misspeculation work; anything
    // else is a stall whose component the blocking reason decides.
    CpiComponent component;
    if (cycleDispatchedCorrect_)
        component = CpiComponent::Base;
    else if (cycleDispatched_)
        component = CpiComponent::BranchMisspec;
    else
        component = classifyStallCycle(cycleBlock_);
    stats_.cpi.add(component);
    midCycle_ = false;

    if (telemetry_ && modeSwitch_ &&
        modeSwitch_->pubsEnabled() != lastPubsEnabled_) {
        lastPubsEnabled_ = modeSwitch_->pubsEnabled();
        telemetry_->noteModeTransition(now_, lastPubsEnabled_,
                                       stats_.cpi);
    }

    size_t occupancy = 0;
    for (const auto &queue : iqs_)
        occupancy += queue->occupancy();
    stats_.iqOccupancy.sample(occupancy);

    if (telemetry_) {
        size_t priorityOccupancy = 0;
        for (const auto &queue : iqs_)
            priorityOccupancy += queue->priorityOccupancy();
        telemetry_->noteCycle(occupancy, priorityOccupancy);
        if (now_ >= telemetry_->nextHeartbeat())
            telemetry_->heartbeat(now_, stats_);
    }

    if (auditPolicy_ != CheckPolicy::Off && params_.auditInterval != 0 &&
        now_ % params_.auditInterval == 0) {
        runAudit("periodic");
    }
}

void
Pipeline::runAudit(const char *context)
{
    AuditReport report = Auditor::audit(*this);
    ++stats_.auditsRun;
    if (report.ok())
        return;
    stats_.auditViolations += report.violations.size();
    std::string when = std::string(context) + ", cycle " +
                       std::to_string(now_);
    reportViolation(auditPolicy_, SimError::Kind::Audit,
                    report.format(when) + debugSnapshot());
}

void
Pipeline::applyConfEvents()
{
    while (!confEvents_.empty() && confEvents_.top().cycle <= now_) {
        const ConfEvent &event = confEvents_.top();
        sliceUnit_->branchResolved(event.pc, event.correct);
        confEvents_.pop();
    }
}

void
Pipeline::processSquashes()
{
    while (!squashEvents_.empty() && squashEvents_.top().cycle <= now_) {
        uint32_t branchId = squashEvents_.top().branchId;
        squashEvents_.pop();
        squashYoungerThan(branchId);
        // State recovery: fetch resumes on the correct path after the
        // recovery penalty (Table I: 10 cycles).
        wrongPathActive_ = false;
        wrongPathPc_ = 0;
        if (now_ + params_.recoveryPenalty >= fetchSuspendedUntil_) {
            fetchSuspendedUntil_ = now_ + params_.recoveryPenalty;
            suspendReason_ = SuspendReason::Recovery;
        }
        // Squash recovery rewrites the rename map, free lists, and every
        // queue at once — audit the aftermath, where bugs concentrate.
        if (auditPolicy_ != CheckPolicy::Off)
            runAudit("post-squash");
    }
}

void
Pipeline::recordSquashed(uint32_t id)
{
    InflightCold &cold = cold_[id];
    cold.di.stamps.squashed = true;
    pipeview_->record(cold.di);
}

void
Pipeline::assertHotColdAgree([[maybe_unused]] uint32_t id) const
{
#ifndef NDEBUG
    const InflightHot &hot = hot_[id];
    const InflightCold &cold = cold_[id];
    panic_if(hot.seq != cold.di.seq,
             "hot/cold seq mismatch for slot %u: %llu vs %llu", id,
             (unsigned long long)hot.seq,
             (unsigned long long)cold.di.seq);
    panic_if(hot.op != cold.di.op,
             "hot/cold opcode mismatch for slot %u", id);
    panic_if(hot.sliceUnconfident != cold.slice.unconfident,
             "hot/cold PUBS priority bit mismatch for slot %u", id);
#endif
}

void
Pipeline::squashYoungerThan(uint32_t branchId)
{
    // Drop not-yet-dispatched wrong-path instructions.
    for (uint32_t id : frontendQueue_) {
        if (PUBS_UNLIKELY(pipeview_ != nullptr))
            recordSquashed(id);
        hot_[id].valid = false;
        freeIds_.push_back(id);
        ++stats_.squashed;
    }
    frontendQueue_.clear();

    // Walk the ROB from the tail, undoing dispatch effects in reverse
    // program order until the mispredicted branch is the youngest.
    while (!rob_.empty() && rob_.tail() != branchId) {
        uint32_t id = rob_.tail();
        InflightHot &hot = hot_[id];
        panic_if(!hot.wrongPath, "squashing a correct-path instruction");
        if (hot.inIq) {
            iq::IssueQueue &queue = *iqs_[hot.iqIndex];
            if (ageMatrix_ && hot.iqIndex == 0) {
                uint32_t slot = queue.slotOf(id);
                panic_if(slot == iq::IssueQueue::noSlot,
                         "squashed inst %u not resident in its queue", id);
                ageMatrix_->remove(slot);
            }
            queue.remove(id);
            hot.inIq = false;
        }
        if (hot.inLsq)
            lsq_.removeYoungest(id);
        if (hot.physDst != invalidPhysReg) {
            rename_.rollback(hot.dstCls, cold_[id].di.dst, hot.physDst,
                             hot.prevPhysDst);
        }
        if (PUBS_UNLIKELY(pipeview_ != nullptr))
            recordSquashed(id);
        releaseDeps(id);
        hot.valid = false;
        freeIds_.push_back(id);
        rob_.popTail();
        ++stats_.squashed;
    }
}

void
Pipeline::doCommit()
{
    unsigned committed = 0;
    while (committed < params_.commitWidth && !rob_.empty() &&
           stats_.committed < runTarget_) {
        uint32_t id = rob_.head();
        InflightHot &hot = hot_[id];
        if (!hot.issued || hot.doneCycle > now_)
            break;

        assertHotColdAgree(id);
        InflightCold &cold = cold_[id];

        if (hot.physDst != invalidPhysReg)
            rename_.freeReg(hot.dstCls, hot.prevPhysDst);
        if (hot.inLsq) {
            lsq_.remove(id);
            if (isa::isStore(hot.op)) {
                recentStores_.insert(cold.di.effAddr, cold.di.memSize,
                                     hot.doneCycle);
            }
        }
        if (modeSwitch_)
            modeSwitch_->noteCommit();
        panic_if(hot.wrongPath, "committing a wrong-path instruction");
        if (PUBS_UNLIKELY(checker_ != nullptr)) {
            ++stats_.checkerCommits;
            std::string diag = checker_->check(cold.di, now_);
            if (!diag.empty()) {
                ++stats_.checkerDivergences;
                reportViolation(checkPolicy_, SimError::Kind::Check,
                                diag + debugSnapshot());
            }
        }
        if (PUBS_UNLIKELY(hot.op == Opcode::Halt))
            haltCommitted_ = true;

        if (PUBS_UNLIKELY(telemetry_ != nullptr)) {
            telemetry_->noteCommit(hot.sliceUnconfident, hot.trueSlice);
            if (cold.di.isCondBranch()) {
                telemetry_->noteBranchCommit(cold.di.pc,
                                             hot.sliceUnconfident,
                                             hot.condPredictionCorrect);
            }
        }
        if (PUBS_UNLIKELY(pipeview_ != nullptr)) {
            cold.di.stamps.retire = now_;
            pipeview_->record(cold.di);
        }

        releaseDeps(id);
        hot.valid = false;
        freeIds_.push_back(id);
        rob_.popHead();
        ++stats_.committed;
        ++committed;
    }
}

bool
Pipeline::srcsReady(const InflightHot &hot, Cycle &readyAt) const
{
    readyAt = 0;
    if (hot.physSrc1 != invalidPhysReg) {
        Cycle r = regReadyCycle(hot.src1Cls, hot.physSrc1);
        if (r > now_)
            return false;
        readyAt = std::max(readyAt, r);
    }
    if (hot.physSrc2 != invalidPhysReg) {
        Cycle r = regReadyCycle(hot.src2Cls, hot.physSrc2);
        if (r > now_)
            return false;
        readyAt = std::max(readyAt, r);
    }
    return true;
}

void
Pipeline::issueInst(uint32_t id)
{
    InflightHot &hot = hot_[id];
    const isa::OpInfo &info = isa::opInfo(hot.op);

    hot.issued = true;
    stats_.iqWaitSum += now_ - hot.dispatchCycle;
    stats_.iqWait.sample(now_ - hot.dispatchCycle);
    ++stats_.issued;
    if (PUBS_UNLIKELY(telemetry_ != nullptr) && hot.sliceUnconfident) {
        telemetry_->noteSliceIssue(hot.priorityEntry,
                                   now_ - hot.feReadyCycle);
    }

    Cycle done;
    if (isa::isLoad(hot.op)) {
        const trace::DynInst &di = cold_[id].di;
        Lsq::Dep dep =
            lsq_.olderStoreDependenceAt(hot.lsqPos, di.effAddr, di.memSize);
        panic_if(dep.kind == Lsq::Dep::Wait,
                 "load issued with unresolved older store");
        Cycle aguDone = now_ + 1;
        bool sbForward = false;
        Cycle sbReady = 0;
        if (dep.kind == Lsq::Dep::None) {
            // Post-commit store buffer: the youngest covering store
            // forwards (newest-first search over live entries).
            Cycle sbDone = 0;
            sbForward =
                recentStores_.coveringStore(di.effAddr, di.memSize, sbDone);
#ifndef NDEBUG
            Cycle refDone = 0;
            bool refForward = recentStores_.coveringStoreReference(
                di.effAddr, di.memSize, refDone);
            panic_if(refForward != sbForward ||
                         (sbForward && refDone != sbDone),
                     "store buffer live-entry lookup diverges from "
                     "full-depth scan");
#endif
            if (sbForward)
                sbReady = sbDone + Lsq::forwardLatency;
        }
        if (dep.kind == Lsq::Dep::Forward) {
            done = std::max(aguDone, dep.readyCycle);
        } else if (sbForward) {
            done = std::max(aguDone, sbReady);
        } else if (hot.wrongPath && di.effAddr == 0) {
            // Wrong-path load with no address approximation: charge an
            // L1 hit without touching the cache.
            done = aguDone + params_.memory.l1d.hitLatency;
        } else {
            mem::DataAccess res = mem_->dataAccess(di.effAddr, false,
                                                   aguDone);
            ++stats_.l1dAccesses;
            if (!res.l1Hit)
                ++stats_.l1dMisses;
            if (res.llcMiss) {
                ++stats_.llcMisses;
                if (modeSwitch_)
                    modeSwitch_->noteLlcMiss();
            }
            hot.missLevel = res.llcMiss ? 2 : (res.l1Hit ? 0 : 1);
            done = res.readyCycle;
        }
        lsq_.markDoneAt(hot.lsqPos, id, done);
    } else if (isa::isStore(hot.op)) {
        Cycle aguDone = now_ + 1;
        if (!hot.wrongPath) {
            // Wrong-path stores never reach the cache (they would only
            // write at commit); correct-path stores probe it when they
            // issue, modelling an eagerly draining store buffer.
            const trace::DynInst &di = cold_[id].di;
            mem::DataAccess res = mem_->dataAccess(di.effAddr, true,
                                                   aguDone);
            ++stats_.l1dAccesses;
            if (!res.l1Hit)
                ++stats_.l1dMisses;
            if (res.llcMiss) {
                ++stats_.llcMisses;
                if (modeSwitch_)
                    modeSwitch_->noteLlcMiss();
            }
        }
        done = aguDone;
        lsq_.markDoneAt(hot.lsqPos, id, done);
        // The store's data is visible to the dependence check from the
        // next select snapshot on: give parked loads another look.
        scheduleLoadRecheck();
    } else {
        done = now_ + info.latency;
    }
    hot.doneCycle = done;
    if (PUBS_UNLIKELY(pipeview_ != nullptr)) {
        cold_[id].di.stamps.issue = now_;
        cold_[id].di.stamps.complete = done;
    }

    if (hot.physDst != invalidPhysReg)
        setRegReady(hot.dstCls, hot.physDst, done);
    wakeDependents(id, done);

    // Branch resolution: train the confidence table with the outcome,
    // and schedule the misprediction squash for the completion cycle.
    if (isa::isCondBranch(hot.op) && sliceUnit_ && !hot.wrongPath)
        confEvents_.push({done, cold_[id].di.pc,
                          hot.condPredictionCorrect});
    if (PUBS_UNLIKELY(hot.isMispredict)) {
        Cycle fetchCycle = cold_[id].fetchCycle;
        stats_.misspecPenaltySum += done - fetchCycle;
        ++stats_.misspecPenaltyCount;
        stats_.misspecPenalty.sample(done - fetchCycle);
        squashEvents_.push({done, id});
        if (telemetry_) {
            telemetry_->noteMispredictResolved(cold_[id].di.pc,
                                               done - fetchCycle);
            traceTrueSlice(id);
        }
    }
}

void
Pipeline::traceTrueSlice(uint32_t branchId)
{
    const InflightHot &branch = hot_[branchId];
    // Snapshot the ROB in program order and locate the branch.
    static thread_local std::vector<uint32_t> ids;
    ids.clear();
    rob_.forEach([](uint32_t id) { ids.push_back(id); });
    size_t branchPos = SIZE_MAX;
    for (size_t i = ids.size(); i-- > 0;) {
        if (ids[i] == branchId) {
            branchPos = i;
            break;
        }
    }
    if (branchPos == SIZE_MAX)
        return; // resolved after leaving the window

    // Physical registers whose producers belong to the slice. Renaming
    // guarantees at most one in-flight producer per physical register.
    static thread_local std::vector<bool> wantInt, wantFp;
    wantInt.assign(params_.intPhysRegs, false);
    wantFp.assign(params_.fpPhysRegs, false);
    auto want = [&](isa::RegClass cls, PhysRegId reg) {
        if (reg == invalidPhysReg || cls == isa::RegClass::None)
            return;
        (cls == isa::RegClass::Fp ? wantFp : wantInt)[(size_t)reg] = true;
    };
    auto wanted = [&](isa::RegClass cls, PhysRegId reg) {
        if (reg == invalidPhysReg || cls == isa::RegClass::None)
            return false;
        return (bool)(cls == isa::RegClass::Fp ? wantFp
                                               : wantInt)[(size_t)reg];
    };

    want(branch.src1Cls, branch.physSrc1);
    want(branch.src2Cls, branch.physSrc2);

    // Walk older instructions youngest-first, growing the register set
    // transitively: the true dynamic backward slice within the window.
    Pc branchPc = cold_[branchId].di.pc;
    for (size_t i = branchPos; i-- > 0;) {
        InflightHot &hot = hot_[ids[i]];
        if (!hot.valid || hot.physDst == invalidPhysReg)
            continue;
        if (!wanted(hot.dstCls, hot.physDst))
            continue;
        if (!hot.trueSlice) {
            hot.trueSlice = true;
            telemetry_->noteTrueSliceInst(branchPc, hot.sliceUnconfident);
        }
        want(hot.src1Cls, hot.physSrc1);
        want(hot.src2Cls, hot.physSrc2);
    }
}

iq::IssueQueue &
Pipeline::queueFor(const trace::DynInst &di)
{
    if (iqs_.size() == 1)
        return *iqs_[0];
    return *iqs_[(size_t)fuTypeOf(isa::opClass(di.op))];
}

void
Pipeline::doIssue()
{
    unsigned grants = 0;
    for (size_t q = 0; q < iqs_.size(); ++q) {
        if (grants >= params_.issueWidth)
            break;
        bool useAge = ageMatrix_ != nullptr && q == 0;
        issueFromQueue(*iqs_[q], useAge, grants);
    }
}

void
Pipeline::issueFromQueue(iq::IssueQueue &queue, bool useAgeMatrix,
                         unsigned &grants)
{
    if (!queue.hasReady())
        return;

    const auto &slots = queue.prioritySlots();
    const auto &words = queue.readyWords();

    // Wakeup: the scoreboard already marked operand-complete entries in
    // the queue's ready bitmap; snapshot them in positional order.
    // Loads additionally clear the store-dependence hurdle here — a
    // blocked load is parked off the bitmap until a store issue
    // schedules a recheck, so idle queues are recognised in O(1).
    std::fill(readyMask_.begin(), readyMask_.end(), 0);
    static thread_local std::vector<uint32_t> readySlots;
    readySlots.clear();
    for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
            uint32_t s = (uint32_t)(w * 64) + countTrailingZeros(word);
            word &= word - 1;
            const iq::IqSlot &slot = slots[s];
            const InflightHot &hot = hot_[slot.clientId];
#ifndef NDEBUG
            Cycle debugReadyAt;
            panic_if(!slot.valid || !srcsReady(hot, debugReadyAt),
                     "ready bit set for unready slot %u", s);
#endif
            if (isa::isLoad(hot.op)) {
                const trace::DynInst &di = cold_[slot.clientId].di;
                Lsq::Dep dep = lsq_.olderStoreDependenceAt(
                    hot.lsqPos, di.effAddr, di.memSize);
#ifndef NDEBUG
                Lsq::Dep ref = lsq_.olderStoreDependence(
                    slot.clientId, di.effAddr, di.memSize);
                panic_if(ref.kind != dep.kind ||
                             (dep.kind == Lsq::Dep::Forward &&
                              ref.readyCycle != dep.readyCycle),
                         "indexed LSQ dependence diverges from scan");
#endif
                if (dep.kind == Lsq::Dep::Wait) {
                    queue.clearReadySlot(s);
                    memBlockedLoads_.push_back({slot.clientId, hot.seq});
                    continue;
                }
            }
            readySlots.push_back(s);
            readyMask_[s / 64] |= (uint64_t)1 << (s % 64);
        }
    }

    static thread_local std::vector<uint32_t> grantedIds;
    static thread_local std::vector<bool> granted;
    grantedIds.clear();
    granted.assign(slots.size(), false);

    auto tryGrant = [&](uint32_t s) {
        if (granted[s] || grants >= params_.issueWidth)
            return;
        const isa::OpInfo &info = isa::opInfo(hot_[slots[s].clientId].op);
        FuType fu = fuTypeOf(info.cls);
        unsigned busy = info.unpipelined ? info.latency : 1;
        if (!fuPool_.acquire(fu, now_, busy))
            return;
        granted[s] = true;
        grantedIds.push_back(slots[s].clientId);
        ++grants;
        issueInst(slots[s].clientId);
    };

    // The age matrix promotes the single oldest ready instruction ahead
    // of the positional scan (Section V-G1).
    if (useAgeMatrix) {
        int oldest = ageMatrix_->oldestReady(readyMask_);
        if (oldest >= 0)
            tryGrant((uint32_t)oldest);
    }

    // Section III-C1's idealised flexible-priority select: a first
    // positional pass restricted to ready unconfident-slice
    // instructions, regardless of where they sit in the queue.
    if (params_.idealPrioritySelect) {
        for (uint32_t s : readySlots) {
            if (hot_[slots[s].clientId].sliceUnconfident)
                tryGrant(s);
        }
    }

    // Positional (head-first) select.
    for (uint32_t s : readySlots)
        tryGrant(s);

    if (grantedIds.size() < readySlots.size())
        ++stats_.issueConflictCycles;

    // Physically vacate granted entries after the scan (keeps slot
    // indices stable during selection, as in the real two-phase
    // select/payload pipeline).
    for (uint32_t id : grantedIds) {
        if (useAgeMatrix) {
            uint32_t s = queue.slotOf(id);
            panic_if(s == iq::IssueQueue::noSlot,
                     "granted inst %u not resident in its queue", id);
            ageMatrix_->remove(s);
        }
        queue.remove(id);
        hot_[id].inIq = false;
    }
}

void
Pipeline::doDispatch()
{
    unsigned dispatched = 0;
    while (dispatched < params_.decodeWidth && !frontendQueue_.empty()) {
        uint32_t id = frontendQueue_.front();
        InflightHot &hot = hot_[id];
        if (hot.feReadyCycle > now_)
            break;

        assertHotColdAgree(id);
        InflightCold &cold = cold_[id];
        const trace::DynInst &di = cold.di;
        isa::Inst staticInst{di.op, di.dst, di.src1, di.src2, 0};

        if (rob_.full()) {
            ++stats_.robFullStallCycles;
            cycleBlock_ = DispatchBlock::RobFull;
            break;
        }
        if (di.isMem() && lsq_.full()) {
            cycleBlock_ = DispatchBlock::LsqFull;
            break;
        }

        isa::RegClass dstCls = isa::dstRegClass(staticInst);
        if (di.dst != invalidReg && dstCls != isa::RegClass::None &&
            rename_.freeRegs(dstCls) == 0) {
            cycleBlock_ = DispatchBlock::RenameFull;
            break;
        }

        bool isNop = isa::opClass(di.op) == OpClass::Nop;
        if (!isNop) {
            iq::IssueQueue &queue = queueFor(di);
            hot.iqIndex = iqs_.size() == 1
                              ? 0
                              : (uint8_t)fuTypeOf(isa::opClass(di.op));

            bool pubsOn = params_.usePubs && queue.priorityEntries() > 0;
            bool pubsActive = pubsOn && modeSwitch_->pubsEnabled();
            bool wantPriority = pubsActive && hot.sliceUnconfident;

            if (pubsOn && !pubsActive) {
                // Mode switch disabled PUBS: the whole IQ is used
                // uniformly via weighted random free-list choice.
                if (queue.occupancy() >= queue.capacity()) {
                    ++stats_.iqFullStallCycles;
                    cycleBlock_ = DispatchBlock::IqFull;
                    break;
                }
                queue.dispatchUniform(id, hot.seq, rng_);
            } else if (wantPriority) {
                if (queue.canDispatch(true)) {
                    queue.dispatch(id, hot.seq, true);
                    hot.priorityEntry = true;
                } else if (!params_.pubs.stallPolicy &&
                           queue.canDispatch(false)) {
                    // Non-stall policy: fall back to a normal entry.
                    queue.dispatch(id, hot.seq, false);
                } else {
                    ++stats_.priorityStallCycles;
                    cycleBlock_ = DispatchBlock::PriorityStall;
                    break;
                }
            } else {
                if (!queue.canDispatch(false)) {
                    ++stats_.iqFullStallCycles;
                    cycleBlock_ = DispatchBlock::IqFull;
                    break;
                }
                queue.dispatch(id, hot.seq, false);
            }

            if (hot.priorityEntry)
                ++stats_.priorityDispatches;
            else
                ++stats_.normalDispatches;

            if (ageMatrix_ && hot.iqIndex == 0) {
                uint32_t s = queue.slotOf(id);
                panic_if(s == iq::IssueQueue::noSlot,
                         "dispatched inst %u not resident in its queue",
                         id);
                ageMatrix_->dispatch(s);
            }
            hot.inIq = true;
        }

        // Rename.
        if (di.src1 != invalidReg) {
            hot.src1Cls = isa::srcRegClass(staticInst, 0);
            hot.physSrc1 = rename_.mapOf(hot.src1Cls, di.src1);
        }
        if (di.src2 != invalidReg) {
            hot.src2Cls = isa::srcRegClass(staticInst, 1);
            hot.physSrc2 = rename_.mapOf(hot.src2Cls, di.src2);
        }
        if (di.dst != invalidReg && dstCls != isa::RegClass::None) {
            hot.dstCls = dstCls;
            hot.physDst =
                rename_.renameDst(dstCls, di.dst, hot.prevPhysDst);
            setRegReady(dstCls, hot.physDst, neverCycle);
            regProducer(dstCls, hot.physDst) = id;
            regProducerSeq(dstCls, hot.physDst) = hot.seq;
        }

        if (di.isMem()) {
            hot.lsqPos = lsq_.push(id, di.isStore(), di.effAddr,
                                   di.memSize);
            hot.inLsq = true;
        }

        if (!isNop)
            setupScoreboard(id);

        rob_.push(id);
        hot.dispatched = true;
        hot.dispatchCycle = now_;
        cycleDispatched_ = true;
        if (!hot.wrongPath)
            cycleDispatchedCorrect_ = true;
        if (PUBS_UNLIKELY(pipeview_ != nullptr)) {
            cold.di.stamps.rename = now_;
            cold.di.stamps.dispatch = now_;
        }

        if (isNop) {
            // Nops bypass the IQ: complete immediately.
            hot.issued = true;
            hot.doneCycle = now_ + 1;
            if (PUBS_UNLIKELY(pipeview_ != nullptr)) {
                cold.di.stamps.issue = now_;
                cold.di.stamps.complete = now_ + 1;
            }
        }

        frontendQueue_.pop_front();
        ++dispatched;
    }
}

void
Pipeline::doFetch()
{
    if (now_ < fetchSuspendedUntil_)
        return;

    unsigned fetched = 0;
    while (fetched < params_.fetchWidth) {
        if (frontendQueue_.size() >= frontendCapacity_)
            break;

        // Determine the next PC without consuming anything yet.
        Pc fetchPc;
        if (wrongPathActive_) {
            if (wrongPathPc_ == 0)
                break; // wrong path ran off a resolvable edge: idle
            fetchPc = wrongPathPc_;
        } else {
            if (!havePending_) {
                if (sourceExhausted_ || !source_.next(pending_)) {
                    sourceExhausted_ = true;
                    break;
                }
                havePending_ = true;
            }
            fetchPc = pending_.pc;
        }

        // Instruction cache.
        uint64_t llcBefore = mem_->llcMisses();
        Cycle icReady = mem_->fetchAccess(fetchPc, now_);
        stats_.llcMisses += mem_->llcMisses() - llcBefore;
        if (icReady > now_ + params_.memory.l1i.hitLatency) {
            // I-cache miss: fetch resumes when the line arrives.
            fetchSuspendedUntil_ = icReady;
            suspendReason_ = SuspendReason::ICache;
            break;
        }

        bool wpEndGroup = false;
        trace::DynInst di;
        bool onWrongPath = wrongPathActive_;
        if (onWrongPath) {
            if (!makeWrongPathInst(di)) {
                break;
            }
            wpEndGroup = di.isBranch() && di.taken;
        } else {
            di = pending_;
            havePending_ = false;
        }
        di.seq = fetchSeq_++;

        // Allocate the in-flight record: reset all three SoA slices,
        // then stamp the hot copies (seq, opcode, priority bit) that
        // the scheduler reads without touching the cold record.
        panic_if(freeIds_.empty(), "in-flight ring exhausted");
        uint32_t id = freeIds_.back();
        freeIds_.pop_back();
        ++fetchCounter_;
        InflightHot &hot = hot_[id];
        panic_if(hot.valid, "in-flight slot %u still live", id);
        hot = InflightHot{};
        deps_[id] = InflightDeps{};
        InflightCold &cold = cold_[id];
        cold.di = di;
        cold.slice = pubs::SliceDecision{};
        cold.fetchCycle = now_;
        hot.valid = true;
        hot.seq = di.seq;
        hot.op = di.op;
        hot.wrongPath = onWrongPath;
        hot.feReadyCycle = now_ + params_.frontendDepth;
        if (PUBS_UNLIKELY(pipeview_ != nullptr)) {
            cold.di.stamps.fetch = now_;
            cold.di.stamps.decode = now_ + 1;
        }

        // PUBS slice classification happens in the in-order front end —
        // including on the wrong path, exactly as the hardware would.
        if (sliceUnit_) {
            cold.slice = sliceUnit_->decode(cold.di);
            hot.sliceUnconfident = cold.slice.unconfident;
        }

        bool endGroup = false;
        bool btbBubble = false;
        if (!onWrongPath) {
            // Remember data addresses so wrong-path replays of this
            // static instruction can approximate their accesses.
            if (di.isMem())
                lastMemAddr_[program_.indexOf(di.pc)] = di.effAddr;
            fetchControl(hot, cold.di, endGroup, btbBubble);
        } else {
            endGroup = wpEndGroup;
            ++stats_.wrongPathFetched;
        }

        frontendQueue_.push_back(id);
        ++fetched;
        ++stats_.fetched;

        if (btbBubble) {
            ++stats_.btbMissBubbles;
            fetchSuspendedUntil_ = now_ + params_.btbMissPenalty;
            suspendReason_ = SuspendReason::Btb;
            break;
        }
        if (endGroup)
            break;
        if (!onWrongPath && wrongPathActive_)
            break; // just switched onto the wrong path
    }
}

void
Pipeline::fetchControl(InflightHot &hot, const trace::DynInst &di,
                       bool &endGroup, bool &btbBubble)
{
    // A wrong path that leaves the program (or has no target) idles the
    // front end until the squash.
    auto enterWrongPath = [this](Pc wrongPc) {
        wrongPathActive_ = true;
        wrongPathPc_ = program_.contains(wrongPc) ? wrongPc : 0;
    };

    if (di.isCondBranch()) {
        ++stats_.condBranches;
        bool predTaken = predictor_->predict(di.pc);
        predictor_->update(di.pc, di.taken);
        hot.condPredictionCorrect = predTaken == di.taken;
        hot.isMispredict = !hot.condPredictionCorrect;
        if (predTaken && !btb_->lookup(di.pc))
            btbBubble = true;
        if (di.taken)
            btb_->update(di.pc, di.nextPc);
        if (hot.isMispredict) {
            ++stats_.condMispredicts;
            // The wrong path is the direction the predictor chose.
            // Predicted taken, actually fell through: the machine
            // fetches from the branch target.
            const isa::Inst &si = program_.at(program_.indexOf(di.pc));
            enterWrongPath(predTaken ? program_.pcOf((size_t)si.imm)
                                     : di.fallthroughPc());
        } else if (di.taken) {
            endGroup = true;
        }
    } else if (di.op == Opcode::J || di.op == Opcode::Jal) {
        if (!btb_->lookup(di.pc))
            btbBubble = true;
        btb_->update(di.pc, di.nextPc);
        if (di.op == Opcode::Jal)
            ras_->push(di.pc + instBytes);
        endGroup = true;
    } else if (di.op == Opcode::Jr) {
        ++stats_.indirectJumps;
        Pc predTarget = ras_->pop();
        if (predTarget != di.nextPc) {
            ++stats_.indirectMispredicts;
            hot.isMispredict = true;
            enterWrongPath(predTarget); // 0 when the RAS is empty
        } else {
            endGroup = true;
        }
    }
}

bool
Pipeline::makeWrongPathInst(trace::DynInst &out)
{
    if (wrongPathPc_ == 0 || !program_.contains(wrongPathPc_)) {
        wrongPathPc_ = 0;
        return false;
    }
    Pc pc = wrongPathPc_;
    size_t index = program_.indexOf(pc);
    const isa::Inst &si = program_.at(index);

    out = trace::DynInst{};
    out.pc = pc;
    out.op = si.op;
    out.dst = si.dst;
    out.src1 = si.src1;
    out.src2 = si.src2;
    out.nextPc = pc + instBytes;

    if (isa::isMem(si.op)) {
        out.effAddr = lastMemAddr_[index];
        out.memSize =
            (si.op == Opcode::Lw || si.op == Opcode::Sw) ? 4 : 8;
    } else if (isa::isCondBranch(si.op)) {
        // Follow the predictor (without training it: outcomes of
        // wrong-path branches are unknown and never update state).
        bool predTaken = predictor_->predict(pc);
        out.taken = predTaken;
        out.nextPc =
            predTaken ? program_.pcOf((size_t)si.imm) : pc + instBytes;
    } else if (si.op == Opcode::J || si.op == Opcode::Jal) {
        out.taken = true;
        out.nextPc = program_.pcOf((size_t)si.imm);
    } else if (si.op == Opcode::Jr) {
        // Unpredictable indirect target on the wrong path: emit the jump
        // and stop fetching until the squash.
        out.taken = true;
        wrongPathPc_ = 0;
        return true;
    } else if (si.op == Opcode::Halt) {
        // A wrong-path halt never commits; stop fetching junk.
        wrongPathPc_ = 0;
        return true;
    }

    wrongPathPc_ = program_.contains(out.nextPc) ? out.nextPc : 0;
    return true;
}

std::string
Pipeline::debugSnapshot() const
{
    std::ostringstream out;
    out << "pipeline state (cycle " << now_ << "):\n"
        << "  committed " << stats_.committed << ", fetched "
        << stats_.fetched << " (" << stats_.wrongPathFetched
        << " wrong-path)\n"
        << "  ROB " << rob_.occupancy() << "/" << rob_.capacity()
        << ", LSQ " << lsq_.occupancy() << "/" << params_.lsqEntries
        << ", front end " << frontendQueue_.size() << "/"
        << frontendCapacity_ << "\n";
    out << "  IQ";
    for (size_t q = 0; q < iqs_.size(); ++q) {
        out << (q ? " |" : "") << " " << iqs_[q]->occupancy() << "/"
            << iqs_[q]->capacity();
        if (unsigned pe = iqs_[q]->priorityEntries())
            out << " (" << pe << " priority)";
    }
    out << "\n  rename free " << rename_.freeRegs(isa::RegClass::Int)
        << " int, " << rename_.freeRegs(isa::RegClass::Fp) << " fp\n"
        << "  fetch "
        << (now_ < fetchSuspendedUntil_ ? "suspended" : "running")
        << (wrongPathActive_ ? ", on the wrong path" : "");
    if (havePending_) {
        out << ", next pc 0x" << std::hex << pending_.pc << std::dec;
    }
    out << "\n";
    return out.str();
}

void
Pipeline::fillStats(StatGroup &group) const
{
    const PipelineStats &s = stats_;
    group.add("cycles", (double)s.cycles, "simulated clock cycles");
    group.add("committed", (double)s.committed, "instructions committed");
    group.add("ipc", s.ipc(), "committed instructions per cycle");
    group.add("cond_branches", (double)s.condBranches);
    group.add("cond_mispredicts", (double)s.condMispredicts);
    group.add("branch_mpki", s.branchMpki(),
              "mispredictions per kilo instructions");
    group.add("llc_misses", (double)s.llcMisses);
    group.add("llc_mpki", s.llcMpki(), "LLC misses per kilo instructions");
    group.add("l1d_accesses", (double)s.l1dAccesses);
    group.add("l1d_misses", (double)s.l1dMisses);
    group.add("btb_miss_bubbles", (double)s.btbMissBubbles);
    group.add("issued", (double)s.issued);
    group.add("issue_conflict_cycles", (double)s.issueConflictCycles,
              "cycles a ready instruction was left unissued");
    group.add("avg_iq_wait", s.avgIqWait(),
              "mean cycles between dispatch and issue");
    group.add("avg_misspec_penalty", s.avgMisspecPenalty(),
              "mean fetch-to-resolution cycles of mispredicted branches");
    group.add("p50_misspec_penalty",
              (double)s.misspecPenalty.percentile(0.5));
    group.add("p90_misspec_penalty",
              (double)s.misspecPenalty.percentile(0.9));
    group.add("avg_iq_occupancy", s.iqOccupancy.mean(),
              "mean occupied IQ entries per cycle");
    group.add("wrong_path_fetched", (double)s.wrongPathFetched);
    group.add("squashed", (double)s.squashed);
    group.add("priority_dispatches", (double)s.priorityDispatches);
    group.add("priority_stall_cycles", (double)s.priorityStallCycles);
    group.add("iq_full_stall_cycles", (double)s.iqFullStallCycles);
    group.add("rob_full_stall_cycles", (double)s.robFullStallCycles);
    if (sliceUnit_) {
        group.add("unconfident_branch_rate",
                  sliceUnit_->unconfidentBranchRate(),
                  "unconfident / dynamic conditional branches");
        group.add("slice_insts", (double)sliceUnit_->sliceInsts());
        group.add("unconfident_slice_insts",
                  (double)sliceUnit_->unconfidentSliceInsts());
    }
    if (modeSwitch_) {
        group.add("pubs_enabled_fraction", modeSwitch_->enabledFraction(),
                  "fraction of mode-switch intervals with PUBS on");
    }
    if (checker_) {
        group.add("checker_commits", (double)s.checkerCommits,
                  "commits cross-validated by the lockstep checker");
        group.add("checker_divergences", (double)s.checkerDivergences);
    }
    if (auditPolicy_ != CheckPolicy::Off) {
        group.add("audits_run", (double)s.auditsRun,
                  "structural invariant audit passes");
        group.add("audit_violations", (double)s.auditViolations);
    }
}

void
Pipeline::fillRegistry(StatRegistry &registry) const
{
    StatGroup &pipeline = registry.group("pipeline");
    fillStats(pipeline);
    pipeline.addHistogram(
        "misspec_penalty", stats_.misspecPenalty,
        "fetch-to-resolution cycles of mispredicted branches");

    stats_.cpi.fill(registry.group("cpi_stack"), stats_.committed);

    StatGroup &iq = registry.group("iq");
    size_t capacity = 0;
    unsigned priorityEntries = 0;
    for (const auto &queue : iqs_) {
        capacity += queue->capacity();
        priorityEntries += queue->priorityEntries();
    }
    iq.add("queues", (double)iqs_.size());
    iq.add("capacity", (double)capacity);
    iq.add("priority_entries", (double)priorityEntries,
           "entries reserved for unconfident-slice instructions");
    iq.addHistogram("occupancy", stats_.iqOccupancy,
                    "occupied entries per cycle");
    iq.addHistogram("wait", stats_.iqWait,
                    "dispatch-to-issue cycles of issued instructions");

    StatGroup &mem = registry.group("mem");
    for (const mem::Cache *cache :
         {&mem_->l1i(), &mem_->l1d(), &mem_->l2()}) {
        std::string prefix = cache->params().name;
        mem.add(prefix + "_accesses", (double)cache->demandAccesses());
        mem.add(prefix + "_misses", (double)cache->demandMisses());
        mem.add(prefix + "_miss_rate", cache->missRate());
        mem.add(prefix + "_prefetch_fills",
                (double)cache->prefetchFills());
        mem.add(prefix + "_useful_prefetches",
                (double)cache->usefulPrefetches());
    }
    mem.add("llc_misses", (double)mem_->llcMisses());

    if (sliceUnit_) {
        StatGroup &pubs = registry.group("pubs");
        pubs.add("dynamic_branches",
                 (double)sliceUnit_->dynamicBranches());
        pubs.add("unconfident_branches",
                 (double)sliceUnit_->unconfidentBranches());
        pubs.add("unconfident_branch_rate",
                 sliceUnit_->unconfidentBranchRate(),
                 "unconfident / dynamic conditional branches");
        pubs.add("slice_insts", (double)sliceUnit_->sliceInsts(),
                 "decoded insts predicted inside some branch slice");
        pubs.add("unconfident_slice_insts",
                 (double)sliceUnit_->unconfidentSliceInsts(),
                 "... inside an unconfident branch slice");
        if (modeSwitch_) {
            pubs.add("mode_intervals", (double)modeSwitch_->intervals());
            pubs.add("mode_enabled_intervals",
                     (double)modeSwitch_->enabledIntervals());
            pubs.add("mode_enabled_fraction",
                     modeSwitch_->enabledFraction(),
                     "fraction of mode-switch intervals with PUBS on");
        }
        sliceUnit_->confTab().fillStats(registry.group("pubs.conf_tab"));
    }

    if (telemetry_) {
        telemetry_->fillSliceStats(registry.group("pubs.telemetry"));
        telemetry_->fillBranchProfile(registry.group("branch_profile"));
        telemetry_->fillHeartbeats(registry.group("heartbeat"));
        if (modeSwitch_) {
            telemetry_->fillModeTransitions(
                registry.group("mode_transitions"));
        }
    }
}

} // namespace pubs::cpu
