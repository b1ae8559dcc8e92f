#include "common/run_codec.hh"

#include <vector>

#include "common/error.hh"
#include "common/serialize.hh"

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
// v5: - the headline copies (instructions ... priority stall cycles) of
//     values the PipelineStats counters already carry.
constexpr uint8_t codecVersion = 5;

/**
 * Fail the decode unless @p ok. Every check the decoder makes throws the
 * Deserializer's own error, so decodeSweepRow catches one error type.
 */
void
require(bool ok, const char *what)
{
    if (!ok)
        throw CheckpointError(what);
}

// writeField()/readField(): the payload's three field types, as the
// PipelineStats and BranchSiteStats field lists visit them.

void
writeField(Serializer &s, uint64_t v)
{
    s.u64(v);
}

void
writeField(Serializer &s, const Histogram &h)
{
    s.u64(h.bucketWidth());
    s.u8((uint8_t)h.scale());
    s.u32((uint32_t)h.numBuckets());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        s.u64(h.bucket(i));
    s.u64(h.sum());
    s.u64(h.samples());
}

/** Component count first, so a geometry change is caught as a shape
 *  mismatch rather than a silent misdecode. */
void
writeField(Serializer &s, const cpu::CpiStack &cpi)
{
    s.u32((uint32_t)cpu::numCpiComponents);
    for (uint64_t cycles : cpi.cycles)
        s.u64(cycles);
}

void
readField(Deserializer &d, uint64_t &v)
{
    v = d.u64();
}

void
readField(Deserializer &d, Histogram &h)
{
    uint64_t width = d.u64();
    uint8_t scale = d.u8();
    uint32_t buckets = d.u32();
    require(width != 0 && buckets != 0 &&
                scale <= (uint8_t)BucketScale::Log2,
            "malformed histogram in sweep-row payload");
    // An implausible bucket count means a corrupt length field; refuse
    // before the allocation can balloon.
    require(buckets <= 1u << 20, "implausible histogram bucket count");
    std::vector<uint64_t> counts(buckets);
    for (uint64_t &count : counts)
        count = d.u64();
    uint64_t sum = d.u64();
    uint64_t total = d.u64();
    h.restore(width, (BucketScale)scale, std::move(counts), sum, total);
}

void
readField(Deserializer &d, cpu::CpiStack &cpi)
{
    require(d.u32() == cpu::numCpiComponents,
            "CPI-stack shape mismatch in sweep-row payload");
    for (uint64_t &cycles : cpi.cycles)
        cycles = d.u64();
}

} // namespace

std::string
encodeSweepRow(const SweepRow &row)
{
    Serializer s;
    s.u8(codecVersion);
    s.str(row.error);
    s.str(row.errorKind);
    s.str(row.phase);

    const sim::RunResult &r = row.result;
    s.str(r.workload);
    s.str(r.machine);
    s.f64(r.unconfidentBranchRate);
    s.f64(r.pubsEnabledFraction);
    s.f64(r.simSeconds);
    s.boolean(r.sampled);
    s.u32(r.windows);
    s.u64(r.skippedInsts);
    s.f64(r.ipcCi95);
    s.f64(r.branchMpkiCi95);
    s.f64(r.llcMpkiCi95);

    auto write = [&s](const auto &field) { writeField(s, field); };
    cpu::PipelineStats::forEachField(write, r.pipeline);
    s.u32((uint32_t)r.branchProfile.size());
    for (const auto &[pc, site] : r.branchProfile) {
        s.u64(pc);
        cpu::BranchSiteStats::forEachField(
            [&](const char *, const auto &field) { write(field); }, site);
    }
    return s.data();
}

bool
decodeSweepRow(const std::string &payload, SweepRow &row,
               std::string *error)
{
    try {
        Deserializer d(payload);
        require(d.u8() == codecVersion, "unknown sweep-row schema version");
        row = SweepRow{};
        row.error = d.str();
        row.errorKind = d.str();
        row.phase = d.str();

        sim::RunResult &r = row.result;
        r.workload = d.str();
        r.machine = d.str();
        r.unconfidentBranchRate = d.f64();
        r.pubsEnabledFraction = d.f64();
        r.simSeconds = d.f64();
        r.sampled = d.boolean();
        r.windows = d.u32();
        r.skippedInsts = d.u64();
        r.ipcCi95 = d.f64();
        r.branchMpkiCi95 = d.f64();
        r.llcMpkiCi95 = d.f64();

        auto read = [&d](auto &field) { readField(d, field); };
        cpu::PipelineStats::forEachField(read, r.pipeline);
        uint32_t branches = d.u32();
        require(branches <= sim::maxBranchProfileRows,
                "implausible branch-profile row count");
        r.branchProfile.resize(branches);
        for (auto &[pc, site] : r.branchProfile) {
            pc = (Pc)d.u64();
            cpu::BranchSiteStats::forEachField(
                [&](const char *, auto &field) { read(field); }, site);
        }
        d.expectEnd();
        return true;
    } catch (const CheckpointError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

} // namespace pubs::bench
