#include "common/run_codec.hh"

#include <cstring>
#include <vector>

namespace pubs::bench
{

namespace
{

// Bump when the payload layout changes; decodeSweepRow rejects other
// versions, which turns stale journals into clean recompute-from-scratch
// instead of silent misdecodes.
// v2: + failure phase, + sampled-simulation fields (windows, skipped
//     instructions, CI half-widths).
// v3: + CPI-stack component cycles, + per-branch profile rows.
// v4: misspecPenalty and iqWait histograms moved to log2 buckets.
constexpr uint8_t codecVersion = 4;

class Encoder
{
  public:
    void put8(uint8_t v) { out_.push_back((char)v); }

    void
    put32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    put64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back((char)((v >> (8 * i)) & 0xff));
    }

    void
    putDouble(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        put64(bits);
    }

    void
    putString(const std::string &s)
    {
        put32((uint32_t)s.size());
        out_ += s;
    }

    void
    putHistogram(const Histogram &h)
    {
        put64(h.bucketWidth());
        put8((uint8_t)h.scale());
        put32((uint32_t)h.numBuckets());
        for (size_t i = 0; i < h.numBuckets(); ++i)
            put64(h.bucket(i));
        put64(h.sum());
        put64(h.samples());
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

class Decoder
{
  public:
    explicit Decoder(const std::string &bytes) : bytes_(bytes) {}

    bool
    get8(uint8_t &v)
    {
        if (pos_ + 1 > bytes_.size())
            return false;
        v = (uint8_t)bytes_[pos_++];
        return true;
    }

    bool
    get32(uint32_t &v)
    {
        if (pos_ + 4 > bytes_.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)(uint8_t)bytes_[pos_++] << (8 * i);
        return true;
    }

    bool
    get64(uint64_t &v)
    {
        if (pos_ + 8 > bytes_.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)(uint8_t)bytes_[pos_++] << (8 * i);
        return true;
    }

    bool
    getDouble(double &v)
    {
        uint64_t bits;
        if (!get64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    getString(std::string &s)
    {
        uint32_t length;
        if (!get32(length) || pos_ + (size_t)length > bytes_.size())
            return false;
        s.assign(bytes_, pos_, length);
        pos_ += length;
        return true;
    }

    bool
    getHistogram(Histogram &h)
    {
        uint64_t width, sum, total;
        uint8_t scale;
        uint32_t buckets;
        if (!get64(width) || !get8(scale) || !get32(buckets))
            return false;
        if (width == 0 || buckets == 0 || scale > (uint8_t)BucketScale::Log2)
            return false;
        // An implausible bucket count means a corrupt length field;
        // refuse before the resize can balloon.
        if (buckets > 1u << 20)
            return false;
        std::vector<uint64_t> counts(buckets);
        for (uint32_t i = 0; i < buckets; ++i)
            if (!get64(counts[i]))
                return false;
        if (!get64(sum) || !get64(total))
            return false;
        h.restore(width, (BucketScale)scale, std::move(counts), sum,
                  total);
        return true;
    }

    bool exhausted() const { return pos_ == bytes_.size(); }

  private:
    const std::string &bytes_;
    size_t pos_ = 0;
};

} // namespace

std::string
encodeSweepRow(const SweepRow &row)
{
    Encoder enc;
    enc.put8(codecVersion);
    enc.putString(row.error);
    enc.putString(row.errorKind);
    enc.putString(row.phase);

    const sim::RunResult &r = row.result;
    enc.putString(r.workload);
    enc.putString(r.machine);
    enc.put64(r.instructions);
    enc.put64(r.cycles);
    enc.putDouble(r.ipc);
    enc.putDouble(r.branchMpki);
    enc.putDouble(r.llcMpki);
    enc.putDouble(r.avgMisspecPenalty);
    enc.putDouble(r.avgIqWait);
    enc.putDouble(r.unconfidentBranchRate);
    enc.putDouble(r.pubsEnabledFraction);
    enc.put64(r.priorityStallCycles);
    enc.putDouble(r.simSeconds);
    enc.put8(r.sampled ? 1 : 0);
    enc.put32(r.windows);
    enc.put64(r.skippedInsts);
    enc.putDouble(r.ipcCi95);
    enc.putDouble(r.branchMpkiCi95);
    enc.putDouble(r.llcMpkiCi95);

    // PipelineStats scalar counters, in declaration order. Extend both
    // sides together and bump codecVersion.
    const cpu::PipelineStats &p = r.pipeline;
    enc.put64(p.cycles);
    enc.put64(p.committed);
    enc.put64(p.fetched);
    enc.put64(p.condBranches);
    enc.put64(p.condMispredicts);
    enc.put64(p.indirectJumps);
    enc.put64(p.indirectMispredicts);
    enc.put64(p.btbMissBubbles);
    enc.put64(p.llcMisses);
    enc.put64(p.l1dAccesses);
    enc.put64(p.l1dMisses);
    enc.put64(p.priorityDispatches);
    enc.put64(p.normalDispatches);
    enc.put64(p.priorityStallCycles);
    enc.put64(p.iqFullStallCycles);
    enc.put64(p.robFullStallCycles);
    enc.put64(p.issueConflictCycles);
    enc.put64(p.issued);
    enc.put64(p.misspecPenaltySum);
    enc.put64(p.misspecPenaltyCount);
    enc.put64(p.wrongPathFetched);
    enc.put64(p.squashed);
    enc.put64(p.iqWaitSum);
    enc.put64(p.checkerCommits);
    enc.put64(p.checkerDivergences);
    enc.put64(p.auditsRun);
    enc.put64(p.auditViolations);
    enc.putHistogram(p.misspecPenalty);
    enc.putHistogram(p.iqOccupancy);
    enc.putHistogram(p.iqWait);

    // CPI stack: component count first so a geometry change is caught
    // as a version/shape mismatch rather than a silent misdecode.
    enc.put32((uint32_t)cpu::numCpiComponents);
    for (size_t c = 0; c < cpu::numCpiComponents; ++c)
        enc.put64(p.cpi.cycles[c]);

    enc.put32((uint32_t)r.branchProfile.size());
    for (const sim::BranchProfileRow &b : r.branchProfile) {
        enc.put64(b.pc);
        enc.put64(b.commits);
        enc.put64(b.mispredicts);
        enc.put64(b.penaltyCycles);
        enc.put64(b.confCorrect);
        enc.put64(b.confWrong);
        enc.put64(b.unconfCorrect);
        enc.put64(b.unconfWrong);
        enc.put64(b.sliceInsts);
        enc.put64(b.sliceCovered);
    }
    return enc.take();
}

bool
decodeSweepRow(const std::string &payload, SweepRow &row,
               std::string *error)
{
    auto failWith = [&](const char *what) {
        if (error)
            *error = what;
        return false;
    };

    Decoder dec(payload);
    uint8_t version;
    if (!dec.get8(version))
        return failWith("empty payload");
    if (version != codecVersion)
        return failWith("unknown sweep-row schema version");

    row = SweepRow{};
    sim::RunResult &r = row.result;
    cpu::PipelineStats &p = r.pipeline;
    uint8_t sampled = 0;
    bool ok = dec.getString(row.error) && dec.getString(row.errorKind) &&
              dec.getString(row.phase) &&
              dec.getString(r.workload) && dec.getString(r.machine) &&
              dec.get64(r.instructions) && dec.get64(r.cycles) &&
              dec.getDouble(r.ipc) && dec.getDouble(r.branchMpki) &&
              dec.getDouble(r.llcMpki) &&
              dec.getDouble(r.avgMisspecPenalty) &&
              dec.getDouble(r.avgIqWait) &&
              dec.getDouble(r.unconfidentBranchRate) &&
              dec.getDouble(r.pubsEnabledFraction) &&
              dec.get64(r.priorityStallCycles) &&
              dec.getDouble(r.simSeconds) && dec.get8(sampled) &&
              dec.get32(r.windows) && dec.get64(r.skippedInsts) &&
              dec.getDouble(r.ipcCi95) &&
              dec.getDouble(r.branchMpkiCi95) &&
              dec.getDouble(r.llcMpkiCi95) && dec.get64(p.cycles) &&
              dec.get64(p.committed) && dec.get64(p.fetched) &&
              dec.get64(p.condBranches) && dec.get64(p.condMispredicts) &&
              dec.get64(p.indirectJumps) &&
              dec.get64(p.indirectMispredicts) &&
              dec.get64(p.btbMissBubbles) && dec.get64(p.llcMisses) &&
              dec.get64(p.l1dAccesses) && dec.get64(p.l1dMisses) &&
              dec.get64(p.priorityDispatches) &&
              dec.get64(p.normalDispatches) &&
              dec.get64(p.priorityStallCycles) &&
              dec.get64(p.iqFullStallCycles) &&
              dec.get64(p.robFullStallCycles) &&
              dec.get64(p.issueConflictCycles) && dec.get64(p.issued) &&
              dec.get64(p.misspecPenaltySum) &&
              dec.get64(p.misspecPenaltyCount) &&
              dec.get64(p.wrongPathFetched) && dec.get64(p.squashed) &&
              dec.get64(p.iqWaitSum) && dec.get64(p.checkerCommits) &&
              dec.get64(p.checkerDivergences) && dec.get64(p.auditsRun) &&
              dec.get64(p.auditViolations) &&
              dec.getHistogram(p.misspecPenalty) &&
              dec.getHistogram(p.iqOccupancy) &&
              dec.getHistogram(p.iqWait);
    if (!ok)
        return failWith("short or malformed sweep-row payload");
    if (sampled > 1)
        return failWith("malformed sampled flag in sweep-row payload");
    r.sampled = sampled != 0;

    uint32_t components;
    if (!dec.get32(components) || components != cpu::numCpiComponents)
        return failWith("CPI-stack shape mismatch in sweep-row payload");
    for (size_t c = 0; c < cpu::numCpiComponents; ++c)
        if (!dec.get64(p.cpi.cycles[c]))
            return failWith("short CPI stack in sweep-row payload");

    uint32_t branches;
    if (!dec.get32(branches) || branches > sim::maxBranchProfileRows)
        return failWith("implausible branch-profile row count");
    r.branchProfile.resize(branches);
    for (sim::BranchProfileRow &b : r.branchProfile) {
        uint64_t pc;
        if (!dec.get64(pc) || !dec.get64(b.commits) ||
            !dec.get64(b.mispredicts) || !dec.get64(b.penaltyCycles) ||
            !dec.get64(b.confCorrect) || !dec.get64(b.confWrong) ||
            !dec.get64(b.unconfCorrect) || !dec.get64(b.unconfWrong) ||
            !dec.get64(b.sliceInsts) || !dec.get64(b.sliceCovered))
            return failWith("short branch-profile row");
        b.pc = (Pc)pc;
    }
    if (!dec.exhausted())
        return failWith("trailing bytes after sweep-row payload");
    return true;
}

} // namespace pubs::bench
