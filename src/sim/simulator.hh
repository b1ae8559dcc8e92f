/**
 * @file
 * Top-level run controller: wires a Program, through the functional
 * emulator, into the timing pipeline, runs warmup + measurement, and
 * returns the headline metrics the figures use.
 */

#ifndef PUBS_SIM_SIMULATOR_HH
#define PUBS_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "cpu/telemetry.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "sim/config.hh"

namespace pubs::sim
{

/**
 * Which part of a (possibly sampled) run is executing, tracked
 * per-thread so a SimError escaping a sweep run can be attributed to
 * fast-forward vs warmup vs measurement in the skip row.
 */
enum class SimPhase
{
    None,
    FastForward,
    Warmup,
    Measure,
    CheckpointIo,
};

/** Stable lowercase name ("fastforward", "warmup", ...; "" for None). */
const char *simPhaseName(SimPhase phase);

/**
 * The innermost phase that was active when a SimError last unwound
 * through a PhaseScope on this thread (None if none since the last
 * clearFailedPhase()).
 */
SimPhase lastFailedPhase();
void clearFailedPhase();

/** RAII marker for the current thread's simulation phase. */
class PhaseScope
{
  public:
    explicit PhaseScope(SimPhase phase);
    ~PhaseScope();

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    SimPhase prev_;
    int exceptionsAtEntry_;
};

/** Rows kept per run: the tail beyond the top-N costliest branches is
 *  noise for the profile's purpose (and bloats sweep-row payloads). */
constexpr size_t maxBranchProfileRows = 64;

/** Headline metrics of one simulation. */
struct RunResult
{
    std::string workload;
    std::string machine;

    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    double branchMpki = 0.0;
    double llcMpki = 0.0;
    double avgMisspecPenalty = 0.0;
    double avgIqWait = 0.0;
    double unconfidentBranchRate = 0.0;
    double pubsEnabledFraction = 1.0;
    uint64_t priorityStallCycles = 0;

    /** Host wall-clock seconds of the measurement phase. */
    double simSeconds = 0.0;

    // Sampled-simulation fields (sim/sampling.hh). All zero/false for a
    // straight-through run, and excluded from statsJson() then, so
    // non-sampled output is byte-identical to pre-sampling builds.
    bool sampled = false;           ///< stitched from measurement windows
    uint32_t windows = 0;           ///< measurement windows aggregated
    uint64_t skippedInsts = 0;      ///< functionally fast-forwarded insts
    double ipcCi95 = 0.0;           ///< 95% CI half-width on ipc
    double branchMpkiCi95 = 0.0;    ///< 95% CI half-width on branchMpki
    double llcMpkiCi95 = 0.0;       ///< 95% CI half-width on llcMpki

    /** Full pipeline counters for detailed analysis. */
    cpu::PipelineStats pipeline{};

    /**
     * Top-misprediction-cost static branches (empty unless the run had
     * telemetry enabled), at most maxBranchProfileRows of them, in
     * cpu::rankBranchSites() order.
     */
    cpu::BranchSites branchProfile;

    /**
     * Set the eight headline fields — instructions, cycles, ipc,
     * branchMpki, llcMpki, avgMisspecPenalty, avgIqWait and
     * priorityStallCycles — from pipeline.
     */
    void deriveHeadline();

    /** Speedup of this run's IPC over @p baseline (same cycle time). */
    double
    speedupOver(const RunResult &other) const
    {
        return other.ipc > 0.0 ? ipc / other.ipc : 0.0;
    }

    /** Simulation speed: kilo-instructions committed per host second. */
    double
    kips() const
    {
        return simSeconds > 0.0
                   ? (double)instructions / simSeconds / 1000.0
                   : 0.0;
    }
};

class Simulator
{
  public:
    /** Simulate @p program on a core configured by @p params. */
    Simulator(const cpu::CoreParams &params, const isa::Program &program);

    /** Simulate the program of @p emulator (a subclass may wrap its
     *  next()). */
    Simulator(const cpu::CoreParams &params,
              std::unique_ptr<emu::Emulator> emulator);

    ~Simulator();

    /**
     * Run @p warmupInsts to warm predictors/caches/tables (stats are then
     * reset), then @p measureInsts under measurement.
     */
    RunResult run(uint64_t warmupInsts, uint64_t measureInsts);

    /**
     * Functionally fast-forward @p insts instructions (no timing; warm
     * state only — see cpu::Pipeline::functionalFastForward). Only legal
     * before run(). @return instructions actually consumed.
     */
    uint64_t fastForward(uint64_t insts);

    /** Instructions fast-forwarded (or restored past) so far. */
    uint64_t fastForwarded() const { return fastForwarded_; }

    /**
     * Serialize the current state as checkpoint container bytes under
     * @p machineLabel. Requires a pristine pipeline; throws
     * CheckpointError otherwise.
     */
    std::string saveCheckpoint(const std::string &machineLabel = "") const;

    /** saveCheckpoint() + atomic write to @p path. */
    void saveCheckpointFile(const std::string &path,
                            const std::string &machineLabel = "") const;

    /**
     * Restore state from checkpoint container bytes (and resync the
     * lockstep checker). Same requirements as saveCheckpoint(); throws
     * CheckpointError on corruption or identity mismatch.
     */
    void restoreCheckpoint(const std::string &bytes);

    /** Read @p path and restoreCheckpoint(). */
    void restoreCheckpointFile(const std::string &path);

    cpu::Pipeline &pipeline() { return *pipeline_; }

  private:
    std::unique_ptr<emu::Emulator> emulator_;
    std::unique_ptr<cpu::Pipeline> pipeline_;
    uint64_t fastForwarded_ = 0;
};

/** One-call convenience used by the benches. */
RunResult simulate(const cpu::CoreParams &params,
                   const isa::Program &program, uint64_t warmupInsts,
                   uint64_t measureInsts);

} // namespace pubs::sim

#endif // PUBS_SIM_SIMULATOR_HH
