/**
 * @file
 * Top-level run controller: wires a Program, through the functional
 * emulator, into the timing pipeline, runs warmup + measurement, and
 * returns the headline metrics the figures use.
 */

#ifndef PUBS_SIM_SIMULATOR_HH
#define PUBS_SIM_SIMULATOR_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "cpu/telemetry.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"
#include "sim/config.hh"

namespace pubs::sim
{

class ValidatedCheckpoint;

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

/**
 * One simulation's outcome: its pipeline counters, which give every
 * headline number (pipeline.ipc(), pipeline.branchMpki(), ...), and what
 * the counters cannot give.
 */
struct RunResult
{
    std::string workload;
    std::string machine;

    double unconfidentBranchRate = 0.0;
    double pubsEnabledFraction = 1.0;

    /** Host wall-clock seconds of the measurement phase. */
    double simSeconds = 0.0;

    // Sampled-simulation fields (sim/sampling.hh). All zero/false for a
    // straight-through run, and excluded from statsJson() then, so
    // non-sampled output is byte-identical to pre-sampling builds.
    bool sampled = false;           ///< stitched from measurement windows
    uint32_t windows = 0;           ///< measurement windows aggregated
    uint64_t skippedInsts = 0;      ///< functionally fast-forwarded insts
    double ipcCi95 = 0.0;           ///< 95% CI half-width on IPC
    double branchMpkiCi95 = 0.0;    ///< ... on branch MPKI
    double llcMpkiCi95 = 0.0;       ///< ... on LLC MPKI

    /** Full pipeline counters for detailed analysis. */
    cpu::PipelineStats pipeline{};

    /**
     * Top-misprediction-cost static branches (empty unless the run had
     * telemetry enabled), at most maxBranchProfileRows of them, in
     * cpu::rankBranchSites() order.
     */
    cpu::BranchSites branchProfile;

    /** Speedup of this run's IPC over @p baseline (same cycle time). */
    double
    speedupOver(const RunResult &other) const
    {
        double base = other.pipeline.ipc();
        return base > 0.0 ? pipeline.ipc() / base : 0.0;
    }

    /** Simulation speed: kilo-instructions committed per host second. */
    double
    kips() const
    {
        return simSeconds > 0.0
                   ? (double)pipeline.committed / simSeconds / 1000.0
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
     * programFingerprint() of the program, computed on the first call
     * and kept: every save and restore of this simulator checks it.
     */
    uint32_t programCrc() const;

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

    /**
     * Restore from a checkpoint already validated, whose program
     * fingerprint must equal @p programCrc, the caller's programCrc()
     * of a simulator of this program: neither is computed again.
     */
    void restoreCheckpoint(const ValidatedCheckpoint &checkpoint,
                           uint32_t programCrc);

    /** Read @p path and restoreCheckpoint(). */
    void restoreCheckpointFile(const std::string &path);

    cpu::Pipeline &pipeline() { return *pipeline_; }

  private:
    std::unique_ptr<emu::Emulator> emulator_;
    std::unique_ptr<cpu::Pipeline> pipeline_;
    uint64_t fastForwarded_ = 0;
    mutable std::optional<uint32_t> programCrc_;
};

/** One-call convenience used by the benches. */
RunResult simulate(const cpu::CoreParams &params,
                   const isa::Program &program, uint64_t warmupInsts,
                   uint64_t measureInsts);

} // namespace pubs::sim

#endif // PUBS_SIM_SIMULATOR_HH
