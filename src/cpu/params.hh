/**
 * @file
 * Core configuration. Defaults reproduce Table I (an ARM Cortex-A72-like
 * 4-wide mobile core); scaled() reproduces the four processor sizes of
 * Table IV used in the Fig. 16 sensitivity study.
 */

#ifndef PUBS_CPU_PARAMS_HH
#define PUBS_CPU_PARAMS_HH

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "branch/predictor.hh"
#include "common/error.hh"
#include "iq/issue_queue.hh"
#include "mem/memory_system.hh"
#include "pubs/params.hh"

namespace pubs::cpu
{

/** Table IV processor size classes. */
enum class SizeClass
{
    Small,
    Medium, ///< the default (Table I)
    Large,
    Huge,
};

const char *sizeClassName(SizeClass size);

struct CoreParams
{
    // --- widths (Table I: 4-wide fetch/decode/issue/commit) ---
    unsigned fetchWidth = 4;
    unsigned decodeWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;

    // --- window (Table I) ---
    unsigned robEntries = 128;
    unsigned iqEntries = 64;
    unsigned lsqEntries = 64;
    unsigned intPhysRegs = 128;
    unsigned fpPhysRegs = 128;

    // --- pipeline ---
    /** Fetch-to-dispatch latency in cycles (front-end depth). */
    unsigned frontendDepth = 5;
    /** State-recovery penalty after a misprediction (Table I: 10). */
    unsigned recoveryPenalty = 10;
    /** Fetch bubble when a taken branch misses in the BTB. */
    unsigned btbMissPenalty = 2;

    // --- function units (Table I / Cortex-A72) ---
    unsigned numIntAlu = 2;
    unsigned numIntMulDiv = 1;
    unsigned numLdSt = 2;
    unsigned numFpu = 2;

    // --- branch prediction ---
    branch::PredictorKind predictor = branch::PredictorKind::Perceptron;
    unsigned btbSets = 2048;
    unsigned btbWays = 4;
    unsigned rasDepth = 16;

    // --- issue-queue organisation ---
    iq::IqKind iqKind = iq::IqKind::Random;
    bool ageMatrix = false;

    /**
     * Section III-C2: distribute the IQ among the four FU groups (AMD
     * Zen style), each sub-queue getting iqEntries/4 entries and its
     * own PUBS priority partition.
     */
    bool distributedIq = false;

    /**
     * Section III-C1: the idealised flexible-priority select logic —
     * ready unconfident-slice instructions win arbitration regardless
     * of their queue position, with no reserved entries. The paper
     * argues this circuit is impractical (huge MUX fan-in); we model it
     * as an upper bound on what PUBS's partitioning approximates.
     */
    bool idealPrioritySelect = false;

    // --- PUBS ---
    bool usePubs = false;
    pubs::PubsParams pubs{};

    // --- memory hierarchy ---
    mem::MemoryParams memory{};

    /** Seed for all model-internal randomness. */
    uint64_t seed = 1;

    // --- observability (cpu/telemetry.hh) ---
    /**
     * Collect cycle-level telemetry: per-branch-PC misprediction
     * profiles, PUBS slice-prediction coverage/accuracy against true
     * backward slices, the priority-entry occupancy histogram, and the
     * interval heartbeat. Off by default: the hot paths then pay only a
     * null-pointer check per event.
     */
    bool telemetry = false;
    /**
     * Cycles between heartbeat samples (0 disables the heartbeat); each
     * sample is also printed to stderr as it is taken.
     */
    unsigned heartbeatInterval = 100000;

    // --- verification (see sim/checker.hh and cpu/audit.hh) ---
    /**
     * Lockstep commit checker: an independent functional emulator of
     * the source's program cross-validates PC / next-PC / destination
     * value / effective address at every commit. Overridable via
     * PUBS_CHECK.
     */
    CheckPolicy checkPolicy = CheckPolicy::Off;
    /**
     * Structural invariant audit (free-list bijection, ROB-IQ-LSQ
     * cross-consistency, PUBS partition bounds, age-matrix acyclicity),
     * run every auditInterval cycles and after every squash.
     * Overridable via PUBS_CHECK.
     */
    CheckPolicy auditPolicy = CheckPolicy::Off;
    /** Cycles between periodic structural audits. */
    unsigned auditInterval = 1024;

    /** The Table IV configuration for @p size (other params default). */
    static CoreParams scaled(SizeClass size);

    /**
     * Reject impossible configurations with one actionable message per
     * problem. Throws pubs::ConfigError listing every violation; a
     * clean configuration returns normally. The Pipeline constructor
     * calls this, but sweep drivers can call it early to skip a bad
     * configuration before building anything.
     */
    void validate() const;

    /** All validation problems, empty when the configuration is sound. */
    std::vector<std::string> validationErrors() const;

    /** Render Table I / Table II style configuration text. */
    std::string describe() const;

    /**
     * The machine's identity, for the sweep journal: a "name=value" line
     * per functional and timing row of paramTable().
     */
    std::string key() const;

    /**
     * The same over the functional rows: the fields that shape the warm
     * state a checkpoint serializes. sim::paramsFingerprint() hashes it,
     * so timing sweeps share checkpoints.
     */
    std::string describeFunctional() const;
};

/** What a field can change, which decides where it counts. */
enum class ParamClass
{
    Functional,    ///< checkpointed warm state: fingerprint and key
    Timing,        ///< a simulated counter or a journaled row: key
    Observational, ///< neither
};

/** A pointer to one field; its type is the row's kind. */
using ParamField =
    std::variant<const bool *, const unsigned *, const uint64_t *,
                 const double *, const std::string *,
                 const branch::PredictorKind *, const iq::IqKind *,
                 const pubs::CounterShape *, const CheckPolicy *>;

/** The legal values of an integer-valued row. */
struct ParamRange
{
    uint64_t min = 0;
    uint64_t max = UINT64_MAX; ///< UINT64_MAX: no upper bound
    bool powerOfTwo = false;

    /** Does the range rule out any value of the field's type? */
    bool
    constrained() const
    {
        return min > 0 || max != UINT64_MAX || powerOfTwo;
    }
};

/** One field of CoreParams or of a struct it holds. */
struct ParamRow
{
    const char *name; ///< its path: "memory.l1d.mshrs"
    ParamField (*field)(const CoreParams &); ///< the field in a machine
    ParamClass cls;
    ParamRange range{};
    /** The switch that builds the unit this row sizes; the range only
     *  applies when it is on. nullptr = always. */
    const bool *(*when)(const CoreParams &) = nullptr;
};

/**
 * The machine-parameter table (params.cc): every field of CoreParams,
 * PubsParams, MemoryParams, CacheParams and StreamPrefetcherParams.
 * Adding a field means adding its row; a static_assert fails until it
 * is there.
 */
std::span<const ParamRow> paramTable();

} // namespace pubs::cpu

#endif // PUBS_CPU_PARAMS_HH
