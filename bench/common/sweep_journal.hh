/**
 * @file
 * Write-ahead journal for sweep results: every completed run is
 * appended as a CRC-protected record and fsync'd *before* the sweep's
 * final output is rendered, so a crash, OOM-kill, or kill -9 mid-sweep
 * loses at most the runs still in flight. A re-run with --resume serves
 * the journaled slots without re-simulating and produces byte-identical
 * final output versus an uninterrupted run.
 *
 * Journal format v1 (little-endian):
 *   header  — 8-byte magic "PUBSJNL1", u32 format version, u32 reserved
 *             (zero), u64 spec key, u64 slot count
 *   records — u32 record magic "BREC", u64 slot index, u32 payload
 *             length, u32 CRC32 of the payload, payload bytes
 *             (run_codec.hh sweep-row encoding)
 * Both are written and read through common/serialize.hh.
 *
 * Recovery semantics: records are read sequentially; the first record
 * whose magic, bounds, or CRC fails marks the torn tail of an
 * interrupted append and everything from it on is discarded (the file
 * is truncated back to the valid prefix before new appends). A journal
 * whose header key, slot count, or version disagrees with the resuming
 * sweep is discarded wholesale — a stale journal must never leak rows
 * into a different sweep.
 */

#ifndef PUBS_BENCH_COMMON_SWEEP_JOURNAL_HH
#define PUBS_BENCH_COMMON_SWEEP_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace pubs::bench
{

class SweepJournal
{
  public:
    /**
     * Open the journal at @p path for a sweep identified by @p specKey
     * with @p slots runs. With @p resume, existing valid records for
     * this exact (key, slots) pair are loaded and served via has() /
     * payload(); otherwise the file is recreated empty. Throws SimError
     * (Kind::Fatal) if the file cannot be created. A nonzero
     * @p killAfter is a fault plan's killafter:N (see record()).
     */
    SweepJournal(std::string path, uint64_t specKey, uint64_t slots,
                 bool resume, uint64_t killAfter = 0);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Was @p slot completed in a previous (interrupted) sweep? */
    bool has(size_t slot) const;

    /** Journaled payload of @p slot (valid only when has(slot)). */
    const std::string &payload(size_t slot) const;

    /** Records recovered at open (resume mode). */
    size_t loaded() const { return loaded_; }

    /**
     * Append and fsync one completed run (thread-safe). Failures to
     * append degrade to a warning: the sweep still completes, it just
     * loses resumability from this point.
     *
     * Honours the fault plan's killafter:N directive: after the Nth
     * commit to this journal the parent SIGKILLs itself, giving tests
     * and CI a deterministic mid-sweep kill -9.
     */
    void record(size_t slot, const std::string &payload);

    const std::string &path() const { return path_; }

  private:
    void load(bool resume);

    std::string path_;
    uint64_t specKey_;
    uint64_t slots_;
    std::FILE *file_ = nullptr;
    std::vector<std::string> payloads_;
    std::vector<bool> present_;
    size_t loaded_ = 0;
    std::mutex mutex_;
    uint64_t killAfter_;
    uint64_t commits_ = 0;
};

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_SWEEP_JOURNAL_HH
