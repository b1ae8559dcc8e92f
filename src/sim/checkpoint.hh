/**
 * @file
 * Versioned, CRC-guarded architectural checkpoints.
 *
 * Container format 2: 28-byte header — 8-byte magic "PUBSCKP1", u32
 * format version, u64 payload length, u32 payload CRC32, u32 header
 * CRC32 — followed by the payload, a common/serialize.hh stream holding
 * the checkpoint metadata, the emulator's architectural state, and the
 * pipeline's warm microarchitectural state. Header and payload are both
 * written and read through common/serialize.hh. Readers reject any other
 * version with a typed CheckpointError instead of misdecoding.
 *
 * The payload is a delta over the program: the emulator's memory holds
 * only the pages the guest stored to (emu::SparseMemory::serialize),
 * not the program's image. The metadata's program fingerprint covers
 * the listing and every image page, and a restore checks it before it
 * reads anything, so a checkpoint restores only onto the image it was
 * taken over; the restored memory shares that image as a fresh
 * emulator does. Format 1 carried the whole image and is not read.
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
#include <optional>
#include <string>

#include "cpu/pipeline.hh"
#include "emu/emulator.hh"
#include "isa/program.hh"

namespace pubs::sim
{

/** Magic bytes at the start of every checkpoint. */
constexpr char checkpointMagic[8] = {'P', 'U', 'B', 'S', 'C', 'K', 'P',
                                     '1'};

/** Container format version written by encodeCheckpoint(). */
constexpr uint32_t checkpointFormatVersion = 2;

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
 * microarchitectural state) under @p meta into container bytes.
 * Throws CheckpointError unless the pipeline is pristine (see
 * Pipeline::functionalFastForward).
 */
std::string encodeCheckpoint(const CheckpointMeta &meta,
                             const emu::Emulator &emu,
                             const cpu::Pipeline &pipeline);

/** Validate the container and return the metadata without restoring. */
CheckpointMeta readCheckpointMeta(const std::string &bytes);

/**
 * Container bytes whose framing and CRCs have been checked, with the
 * metadata they hold. Only validateCheckpoint() makes one, so a restore
 * from one checks neither again.
 */
class ValidatedCheckpoint
{
  public:
    const std::string &bytes() const & { return bytes_; }
    std::string bytes() && { return std::move(bytes_); }
    const CheckpointMeta &meta() const { return meta_; }

  private:
    friend ValidatedCheckpoint validateCheckpoint(std::string bytes);
    ValidatedCheckpoint(std::string bytes, CheckpointMeta meta)
        : bytes_(std::move(bytes)), meta_(std::move(meta))
    {}

    std::string bytes_;
    CheckpointMeta meta_;
};

/** Check @p bytes as readCheckpointMeta() does; throws the same. */
ValidatedCheckpoint validateCheckpoint(std::string bytes);

/**
 * Restore @p checkpoint into @p emu and @p pipeline. Its program
 * fingerprint must equal @p programCrc, the programFingerprint() of the
 * live program, which the caller holds, and its machine fingerprint the
 * live machine's; both are checked before any live state changes.
 * Throws CheckpointError on a mismatch or a malformed payload.
 */
void decodeCheckpoint(const ValidatedCheckpoint &checkpoint,
                      uint32_t programCrc, emu::Emulator &emu,
                      cpu::Pipeline &pipeline);

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
     * Fetch the cached container for @p meta's identity if one exists
     * and its framing validates; nothing when absent or corrupt (corrupt
     * artifacts warn and count as a miss, never as an error).
     */
    std::optional<ValidatedCheckpoint>
    load(const CheckpointMeta &meta) const;

    /**
     * load() into @p bytes, emptied on a miss.
     * @return true on a hit.
     */
    bool load(const CheckpointMeta &meta, std::string &bytes) const;

  private:
    std::string dir_;
};

} // namespace pubs::sim

#endif // PUBS_SIM_CHECKPOINT_HH
