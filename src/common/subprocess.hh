/**
 * @file
 * Child-process and signal utilities for fault-isolated execution, plus
 * the length-prefixed, CRC-checked frame protocol worker processes use
 * to return results over a pipe, and the PUBS_FAULT fault-injection
 * plan CI uses to prove the recovery paths.
 *
 * Frame layout (little-endian, written and read through
 * common/serialize.hh): u32 magic "PBSF", u32 payload length, u32 CRC32
 * of the payload, then the payload bytes. A parent reading a
 * frame can therefore distinguish "child died before answering" (short
 * read / bad magic) from "child answered but the bytes are not
 * trustworthy" (CRC mismatch) — both are retried, neither is believed.
 *
 * PUBS_FAULT grammar: a comma-separated list of directives
 *     crash[:rate[:seed]]     worker raises SIGSEGV before simulating
 *     hang[:rate[:seed]]      worker sleeps forever (parent timeout kills)
 *     corrupt[:rate[:seed]]   worker flips a payload byte after the CRC
 *     killafter:N             parent SIGKILLs itself after N journal
 *                             commits (deterministic mid-sweep kill -9)
 * rate defaults to 1.0, seed to 0. Whether attempt (index, attempt) is
 * injected is a pure function of (seed, index, attempt), so a faulty
 * attempt can succeed on retry and a whole run is reproducible.
 */

#ifndef PUBS_COMMON_SUBPROCESS_HH
#define PUBS_COMMON_SUBPROCESS_HH

#include <cstdint>
#include <functional>
#include <string>

#include <sys/types.h>

namespace pubs::proc
{

// --- frame protocol --------------------------------------------------

/** First bytes of every result frame ("PBSF", little-endian u32). */
constexpr uint32_t frameMagic = 0x46534250u;

/** Bytes before the payload: magic, length, CRC32. */
constexpr size_t frameHeaderBytes = 12;

/**
 * Longest payload a frame may declare. A sweep row, the largest, holds
 * at most three histograms of 2^20 buckets (about 24 MiB); any longer
 * length field is corrupt, not a frame still arriving.
 */
constexpr uint32_t frameMaxPayload = 64u << 20;

/** Encode @p payload as one frame (header + payload). */
std::string encodeFrame(const std::string &payload);

enum class FrameStatus
{
    Ok,        ///< complete frame, CRC verified
    Truncated, ///< bytes so far are a valid prefix; child died early?
    Corrupt,   ///< bad magic, impossible length, or CRC mismatch
};

/**
 * Decode the frame at the start of @p buffer into @p payload and, on
 * Ok, consume it from @p buffer: a worker's stream is one frame, so
 * bytes left after it are an error the caller sees.
 * Truncated means @p buffer could still grow into a valid frame and
 * leaves it untouched (more bytes may arrive); Corrupt leaves it
 * untouched too — no completion of these bytes can be trusted, so
 * callers should discard the stream and retry the worker.
 */
FrameStatus nextFrame(std::string &buffer, std::string &payload);

// --- child process helpers -------------------------------------------

/** A forked worker and the read end of its result pipe. */
struct Child
{
    pid_t pid = -1;
    int fd = -1; ///< parent's read end; child's write end is closed here
};

/**
 * Fork a worker. The child runs fn(writeFd) and then _exit(0) without
 * flushing parent-inherited stdio or running atexit handlers; the
 * parent gets the child pid and the read end of the pipe. Throws
 * ProcError if fork or pipe creation fails.
 */
Child spawnChild(const std::function<void(int writeFd)> &fn);

/**
 * Write all of @p bytes to @p fd, retrying short writes and EINTR.
 * Gives up silently on any other error: a worker whose reader is gone
 * has no one left to tell.
 */
void writeAll(int fd, const std::string &bytes);

/**
 * Human-readable description of a waitpid() status: "exited 3",
 * "killed by signal 9 (Killed)", ...
 */
std::string describeStatus(int status);

// --- fault injection -------------------------------------------------

struct FaultPlan
{
    double crashRate = 0.0;   ///< P(worker SIGSEGVs) per attempt
    double hangRate = 0.0;    ///< P(worker hangs) per attempt
    double corruptRate = 0.0; ///< P(frame corrupted) per attempt
    uint64_t seed = 0;
    uint64_t killAfter = 0; ///< SIGKILL the parent after N commits; 0=off

    bool
    any() const
    {
        return crashRate > 0.0 || hangRate > 0.0 || corruptRate > 0.0 ||
               killAfter > 0;
    }

    /** Deterministic coin for (task @p index, @p attempt) at @p rate. */
    bool roll(double rate, uint64_t index, uint64_t attempt,
              uint64_t stream) const;

    bool
    injectCrash(uint64_t index, uint64_t attempt) const
    {
        return roll(crashRate, index, attempt, 1);
    }

    bool
    injectHang(uint64_t index, uint64_t attempt) const
    {
        return roll(hangRate, index, attempt, 2);
    }

    bool
    injectCorrupt(uint64_t index, uint64_t attempt) const
    {
        return roll(corruptRate, index, attempt, 3);
    }
};

/**
 * Parse a PUBS_FAULT spec (see file comment) into @p out.
 * @return true on success; false with @p error set on a malformed spec.
 */
bool parseFaultPlan(const std::string &spec, FaultPlan &out,
                    std::string &error);

} // namespace pubs::proc

#endif // PUBS_COMMON_SUBPROCESS_HH
