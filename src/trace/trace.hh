/**
 * @file
 * Binary trace file format so externally captured (open) traces can be
 * replayed through the timing model, substituting for the paper's SPEC2006
 * runs.
 *
 * v1: 32-byte header — 8-byte magic "PUBSTRC2", u32 format version,
 * u32 record size, u64 record count, 8 reserved (zero) bytes — then one
 * packed 48-byte little-endian record per dynamic instruction, carrying
 * the architectural destination value for the lockstep commit checker.
 *
 * The reader validates everything it can at open: magic, version,
 * record size, header record count against the actual file size, and
 * reserved bytes (which must be zero). All failures throw
 * pubs::TraceError naming the file, so a batch sweep can skip a corrupt
 * trace instead of dying.
 */

#ifndef PUBS_TRACE_TRACE_HH
#define PUBS_TRACE_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/dyninst.hh"

namespace pubs::trace
{

/** Magic bytes at the start of every trace file. */
constexpr char traceMagic[8] = {'P', 'U', 'B', 'S', 'T', 'R', 'C', '2'};

/** On-disk format version written and read. */
constexpr uint32_t traceFormatVersion = 1;

/** Streams DynInst records to a file. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void write(const DynInst &inst);

    /**
     * Finalise the header (record count) and close. Throws TraceError
     * naming the file if any I/O step fails (e.g. a full disk), so a
     * silently corrupt trace is never left looking valid.
     */
    void close();

    uint64_t recordsWritten() const { return count_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
};

/** Replays a trace file as an InstSource. */
class TraceReader : public InstSource
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool next(DynInst &out) override;

    uint64_t recordCount() const { return total_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t total_ = 0;
    uint64_t read_ = 0;
};

/** Buffers an in-memory sequence of records as an InstSource (tests). */
class VectorSource : public InstSource
{
  public:
    explicit VectorSource(std::vector<DynInst> insts)
        : insts_(std::move(insts))
    {}

    bool
    next(DynInst &out) override
    {
        if (pos_ >= insts_.size())
            return false;
        out = insts_[pos_++];
        return true;
    }

  private:
    std::vector<DynInst> insts_;
    size_t pos_ = 0;
};

} // namespace pubs::trace

#endif // PUBS_TRACE_TRACE_HH
