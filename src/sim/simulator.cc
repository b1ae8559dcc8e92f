#include "sim/simulator.hh"

#include <chrono>
#include <exception>

#include "common/atomic_file.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "cpu/telemetry.hh"
#include "sim/checkpoint.hh"

namespace pubs::sim
{

namespace
{

thread_local SimPhase currentPhase = SimPhase::None;
thread_local SimPhase failedPhase = SimPhase::None;

} // namespace

const char *
simPhaseName(SimPhase phase)
{
    switch (phase) {
      case SimPhase::None:
        return "";
      case SimPhase::FastForward:
        return "fastforward";
      case SimPhase::Warmup:
        return "warmup";
      case SimPhase::Measure:
        return "measure";
      case SimPhase::CheckpointIo:
        return "checkpoint_io";
    }
    return "";
}

SimPhase
lastFailedPhase()
{
    return failedPhase;
}

void
clearFailedPhase()
{
    failedPhase = SimPhase::None;
}

PhaseScope::PhaseScope(SimPhase phase)
    : prev_(currentPhase), exceptionsAtEntry_(std::uncaught_exceptions())
{
    currentPhase = phase;
}

PhaseScope::~PhaseScope()
{
    // Unwinding through this scope: remember the innermost phase that
    // was live when the exception was thrown (outer scopes must not
    // overwrite it).
    if (std::uncaught_exceptions() > exceptionsAtEntry_ &&
        failedPhase == SimPhase::None) {
        failedPhase = currentPhase;
    }
    currentPhase = prev_;
}

Simulator::Simulator(const cpu::CoreParams &params,
                     const isa::Program &program)
    : Simulator(params, std::make_unique<emu::Emulator>(program))
{}

Simulator::Simulator(const cpu::CoreParams &params,
                     std::unique_ptr<emu::Emulator> emulator)
    : emulator_(std::move(emulator))
{
    fatal_if(!emulator_, "simulator needs an emulator");
    pipeline_ = std::make_unique<cpu::Pipeline>(params, *emulator_);
}

Simulator::~Simulator() = default;

RunResult
Simulator::run(uint64_t warmupInsts, uint64_t measureInsts)
{
    if (warmupInsts > 0) {
        prof::Scope span("sim/warmup");
        PhaseScope phase(SimPhase::Warmup);
        pipeline_->run(warmupInsts);
        pipeline_->resetStats();
    }
    auto wallStart = std::chrono::steady_clock::now();
    {
        prof::Scope span("sim/measure");
        PhaseScope phase(SimPhase::Measure);
        pipeline_->run(measureInsts);
    }
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wallStart;

    RunResult result;
    result.pipeline = pipeline_->stats();
    result.simSeconds = wall.count();
    if (const pubs::SliceUnit *unit = pipeline_->sliceUnit())
        result.unconfidentBranchRate = unit->unconfidentBranchRate();
    if (const pubs::ModeSwitch *ms = pipeline_->modeSwitch())
        result.pubsEnabledFraction = ms->enabledFraction();
    if (const cpu::CoreTelemetry *tel = pipeline_->telemetry())
        result.branchProfile = tel->topBranchSites(maxBranchProfileRows);
    result.skippedInsts = fastForwarded_;
    return result;
}

uint64_t
Simulator::fastForward(uint64_t insts)
{
    prof::Scope span("sim/fastforward");
    PhaseScope phase(SimPhase::FastForward);
    uint64_t consumed = pipeline_->functionalFastForward(insts);
    fastForwarded_ += consumed;
    // The lockstep checker's private emulator does not see the
    // fast-forwarded instructions; realign it with the source.
    pipeline_->resyncChecker(*emulator_);
    return consumed;
}

uint32_t
Simulator::programCrc() const
{
    if (!programCrc_)
        programCrc_ = programFingerprint(emulator_->program());
    return *programCrc_;
}

std::string
Simulator::saveCheckpoint(const std::string &machineLabel) const
{
    PhaseScope phase(SimPhase::CheckpointIo);
    CheckpointMeta meta;
    meta.workload = emulator_->program().name();
    meta.machine = machineLabel;
    meta.skipInsts = fastForwarded_;
    meta.programCrc = programCrc();
    meta.paramsFp = paramsFingerprint(pipeline_->params());
    return encodeCheckpoint(meta, *emulator_, *pipeline_);
}

void
Simulator::saveCheckpointFile(const std::string &path,
                              const std::string &machineLabel) const
{
    PhaseScope phase(SimPhase::CheckpointIo);
    std::string bytes = saveCheckpoint(machineLabel);
    std::string error = atomicWriteFile(path, bytes);
    if (!error.empty())
        throw CheckpointError("cannot write checkpoint: " + error);
}

void
Simulator::restoreCheckpoint(const std::string &bytes)
{
    PhaseScope phase(SimPhase::CheckpointIo);
    restoreCheckpoint(validateCheckpoint(bytes), programCrc());
}

void
Simulator::restoreCheckpoint(const ValidatedCheckpoint &checkpoint,
                             uint32_t programCrc)
{
    PhaseScope phase(SimPhase::CheckpointIo);
    decodeCheckpoint(checkpoint, programCrc, *emulator_, *pipeline_);
    pipeline_->resyncChecker(*emulator_);
    fastForwarded_ = checkpoint.meta().skipInsts;
}

void
Simulator::restoreCheckpointFile(const std::string &path)
{
    std::string bytes;
    if (!readWholeFile(path, bytes))
        throw CheckpointError("cannot read checkpoint '" + path + "'");
    restoreCheckpoint(bytes);
}

RunResult
simulate(const cpu::CoreParams &params, const isa::Program &program,
         uint64_t warmupInsts, uint64_t measureInsts)
{
    Simulator simulator(params, program);
    RunResult result = simulator.run(warmupInsts, measureInsts);
    result.workload = program.name();
    return result;
}

} // namespace pubs::sim
