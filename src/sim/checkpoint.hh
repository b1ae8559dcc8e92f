/**
 * @file
 * Versioned, CRC-guarded architectural checkpoints.
 *
 * v1 (current) container: 28-byte header — 8-byte magic "PUBSCKP1",
 * u32 format version, u64 payload length, u32 payload CRC32, u32 header
 * CRC32 — followed by the payload, a common/serialize.hh stream holding
 * the checkpoint metadata, the emulator's architectural state, and the
 * pipeline's warm microarchitectural state. Header and payload are both
 * written and read through common/serialize.hh. The header is designed
 * to evolve: readers reject unknown versions with a typed
 * CheckpointError instead of misdecoding.
 *
 * Every corruption mode — truncated tail, bit flip, stale version,
 * mismatched machine geometry — surfaces as CheckpointError; a loader
 * never crashes and never silently restores wrong state.
 *
 * The core contract (pinned by tests/test_checkpoint.cc): fast-forward,
 * save, restore in a fresh process, run detailed simulation — and the
 * result is byte-identical to the same run without the save/restore.
 */

#ifndef PUBS_SIM_CHECKPOINT_HH
#define PUBS_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "cpu/pipeline.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"

namespace pubs::sim
{

/** Magic bytes at the start of every v1 checkpoint. */
constexpr char checkpointMagic[8] = {'P', 'U', 'B', 'S', 'C', 'K', 'P',
                                     '1'};

/** Container format version written by encodeCheckpoint(). */
constexpr uint32_t checkpointFormatVersion = 1;

/**
 * Identity of a checkpoint: what was running, where it was cut, and
 * fingerprints that reject restores into a different program or machine
 * configuration (both of which would silently corrupt results).
 */
struct CheckpointMeta
{
    std::string workload; ///< program name
    std::string machine;  ///< human-readable machine label ("" is fine)
    uint64_t skipInsts = 0; ///< instructions fast-forwarded from reset
    uint32_t programCrc = 0; ///< programFingerprint() of the workload
    uint32_t paramsFp = 0;   ///< paramsFingerprint() of the machine
};

/** CRC32 over the program listing + its image's pages in page order. */
uint32_t programFingerprint(const isa::Program &program);

/**
 * CRC32 of CoreParams::describeFunctional(): covers exactly the fields
 * that shape a checkpoint's serialized warm state. Two machines that
 * differ only in timing parameters share a fingerprint — and therefore
 * share CheckpointStore artifacts and restore each other's checkpoints.
 */
uint32_t paramsFingerprint(const cpu::CoreParams &params);

/**
 * Serialize @p emu (architectural state) + @p pipeline (warm
 * microarchitectural state) under @p meta into v1 container bytes.
 * Throws CheckpointError unless the pipeline is pristine (see
 * Pipeline::functionalFastForward).
 */
std::string encodeCheckpoint(const CheckpointMeta &meta,
                             const emu::Emulator &emu,
                             const cpu::Pipeline &pipeline);

/**
 * Validate @p bytes (magic, version, CRCs) and restore into @p emu and
 * @p pipeline. The stored program and machine fingerprints must match
 * the live ones. Throws CheckpointError on any mismatch or corruption.
 * @return the stored metadata.
 */
CheckpointMeta decodeCheckpoint(const std::string &bytes,
                                emu::Emulator &emu,
                                cpu::Pipeline &pipeline);

/** Validate the container and return the metadata without restoring. */
CheckpointMeta readCheckpointMeta(const std::string &bytes);

/**
 * Content-addressed checkpoint artifacts in one directory, keyed on
 * workload x machine configuration x skip distance x container format
 * version, so sweep workers (and --resume reruns) reuse each other's
 * fast-forward work instead of repeating it. Artifacts are written
 * atomically; a corrupt cached artifact is treated as a miss (with a
 * warning) rather than sinking the run — the cache recomputes and
 * overwrites it.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    /** Content-address filename (inside dir()) for @p meta's identity. */
    std::string pathFor(const CheckpointMeta &meta) const;

    /** Cache container @p bytes for @p meta (atomic; warns on error). */
    void save(const CheckpointMeta &meta, const std::string &bytes) const;

    /**
     * Fetch the cached container bytes for @p meta's identity if one
     * exists and its framing validates.
     * @return true on a hit; false when absent or corrupt (corrupt
     * artifacts warn and count as a miss, never as an error).
     */
    bool load(const CheckpointMeta &meta, std::string &bytes) const;

  private:
    std::string dir_;
};

} // namespace pubs::sim

#endif // PUBS_SIM_CHECKPOINT_HH
