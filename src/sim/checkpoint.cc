#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstring>

#include <sys/stat.h>
#include <sys/types.h>

#include "common/atomic_file.hh"
#include "common/checksum.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace pubs::sim
{

namespace
{

constexpr size_t headerBytes = 28;

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back((char)((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back((char)((v >> (8 * i)) & 0xff));
}

uint32_t
getU32(const std::string &bytes, size_t at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (uint32_t)(uint8_t)bytes[at + i] << (8 * i);
    return v;
}

uint64_t
getU64(const std::string &bytes, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (uint64_t)(uint8_t)bytes[at + i] << (8 * i);
    return v;
}

void
writeMeta(Serializer &s, const CheckpointMeta &meta)
{
    s.beginObject("meta");
    s.str(meta.workload);
    s.str(meta.machine);
    s.u64(meta.skipInsts);
    s.u32(meta.programCrc);
    s.u32(meta.paramsFp);
    s.endObject("meta");
}

CheckpointMeta
readMeta(Deserializer &d)
{
    CheckpointMeta meta;
    d.beginObject("meta");
    meta.workload = d.str();
    meta.machine = d.str();
    meta.skipInsts = d.u64();
    meta.programCrc = d.u32();
    meta.paramsFp = d.u32();
    d.endObject("meta");
    return meta;
}

/**
 * Validate the container framing (magic, version, lengths, both CRCs)
 * and return the payload slice. Every failure is a CheckpointError.
 */
std::string
validatedPayload(const std::string &bytes)
{
    if (bytes.size() < headerBytes)
        throw CheckpointError("checkpoint shorter than its header");
    if (std::memcmp(bytes.data(), checkpointMagic,
                    sizeof(checkpointMagic)) != 0) {
        throw CheckpointError("not a checkpoint file (bad magic)");
    }
    uint32_t version = getU32(bytes, 8);
    if (version != checkpointFormatVersion) {
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(checkpointFormatVersion) + ")");
    }
    uint32_t storedHeaderCrc = getU32(bytes, 24);
    if (crc32(bytes.data(), 24) != storedHeaderCrc)
        throw CheckpointError("checkpoint header fails its CRC");
    uint64_t payloadLen = getU64(bytes, 12);
    if (bytes.size() - headerBytes != payloadLen)
        throw CheckpointError("checkpoint payload length mismatch");
    uint32_t storedPayloadCrc = getU32(bytes, 20);
    if (crc32(bytes.data() + headerBytes, payloadLen) != storedPayloadCrc)
        throw CheckpointError("checkpoint payload fails its CRC");
    return bytes.substr(headerBytes);
}

void
checkIdentity(const CheckpointMeta &stored, const emu::Emulator &emu,
              const cpu::Pipeline &pipeline)
{
    uint32_t liveProgram = programFingerprint(emu.program());
    if (stored.programCrc != liveProgram) {
        throw CheckpointError("checkpoint was taken on a different "
                              "program (workload '" +
                              stored.workload + "')");
    }
    uint32_t liveParams = paramsFingerprint(pipeline.params());
    if (stored.paramsFp != liveParams) {
        throw CheckpointError("checkpoint was taken on a different "
                              "machine configuration (label '" +
                              stored.machine + "')");
    }
}

} // namespace

uint32_t
programFingerprint(const isa::Program &program)
{
    uint32_t crc = crc32(program.listing());
    if (auto image = program.image()) {
        image->forEachPage([&crc](Addr num, const isa::Program::Page &page) {
            crc = crc32(&num, sizeof(num), crc);
            crc = crc32(page.data(), page.size(), crc);
        });
    }
    return crc;
}

uint32_t
paramsFingerprint(const cpu::CoreParams &params)
{
    // Only the functional subset: a checkpoint holds functionally-warmed
    // state, so a timing-only parameter change (widths, window sizes,
    // latencies, PUBS dispatch policy) must neither invalidate cached
    // artifacts nor reject a restore.
    return crc32(params.describeFunctional());
}

std::string
encodeCheckpoint(const CheckpointMeta &meta, const emu::Emulator &emu,
                 const cpu::Pipeline &pipeline)
{
    Serializer payload;
    payload.beginObject("checkpoint");
    writeMeta(payload, meta);
    emu.serialize(payload);
    pipeline.serialize(payload);
    payload.endObject("checkpoint");

    std::string out;
    out.reserve(headerBytes + payload.size());
    out.append(checkpointMagic, sizeof(checkpointMagic));
    putU32(out, checkpointFormatVersion);
    putU64(out, payload.size());
    putU32(out, crc32(payload.data()));
    putU32(out, crc32(out.data(), 24));
    out += payload.data();
    return out;
}

CheckpointMeta
decodeCheckpoint(const std::string &bytes, emu::Emulator &emu,
                 cpu::Pipeline &pipeline)
{
    std::string payload = validatedPayload(bytes);
    Deserializer d(payload);
    d.beginObject("checkpoint");
    CheckpointMeta meta = readMeta(d);
    // Reject a wrong-program / wrong-machine restore before touching any
    // live state: identity failures must leave the target untouched.
    checkIdentity(meta, emu, pipeline);
    emu.unserialize(d);
    pipeline.unserialize(d);
    d.endObject("checkpoint");
    d.expectEnd();
    return meta;
}

CheckpointMeta
readCheckpointMeta(const std::string &bytes)
{
    std::string payload = validatedPayload(bytes);
    Deserializer d(payload);
    d.beginObject("checkpoint");
    return readMeta(d);
}

void
saveCheckpointFile(const std::string &path, const CheckpointMeta &meta,
                   const emu::Emulator &emu, const cpu::Pipeline &pipeline)
{
    std::string bytes = encodeCheckpoint(meta, emu, pipeline);
    std::string error = atomicWriteFile(path, bytes);
    if (!error.empty())
        throw CheckpointError("cannot write checkpoint: " + error);
}

CheckpointMeta
loadCheckpointFile(const std::string &path, emu::Emulator &emu,
                   cpu::Pipeline &pipeline)
{
    std::string bytes;
    if (!readWholeFile(path, bytes))
        throw CheckpointError("cannot read checkpoint '" + path + "'");
    return decodeCheckpoint(bytes, emu, pipeline);
}

std::string
CheckpointStore::pathFor(const CheckpointMeta &meta) const
{
    // Same dual-CRC32 idiom as the sweep journal's spec key: two
    // independently seeded CRC32 streams over the identity text give a
    // 64-bit content address with no new hash machinery.
    uint32_t lo = 0, hi = 0x50554253u;
    auto mix = [&](const std::string &text) {
        lo = crc32(text, lo);
        hi = crc32(text, hi ^ 0x9e3779b9u);
    };
    mix(meta.workload);
    mix(std::to_string(meta.programCrc));
    mix(std::to_string(meta.paramsFp));
    mix(std::to_string(meta.skipInsts));
    mix(std::to_string(checkpointFormatVersion));
    char name[96];
    std::snprintf(name, sizeof(name), "ckpt-%08x%08x.pubsckpt", hi, lo);
    return dir_ + "/" + name;
}

bool
CheckpointStore::contains(const CheckpointMeta &meta) const
{
    std::string bytes;
    return readWholeFile(pathFor(meta), bytes);
}

void
CheckpointStore::save(const CheckpointMeta &meta,
                      const std::string &bytes) const
{
    // Create the cache directory (and parents) on first use; races with
    // other sweep workers are benign (EEXIST).
    for (size_t at = 0; at != std::string::npos;) {
        at = dir_.find('/', at + 1);
        std::string prefix = dir_.substr(0, at);
        if (!prefix.empty())
            ::mkdir(prefix.c_str(), 0777);
    }
    std::string error = atomicWriteFile(pathFor(meta), bytes);
    // A full disk must not sink the run: the store is an accelerator,
    // the simulation can always recompute.
    if (!error.empty())
        warn("cannot cache checkpoint: %s", error.c_str());
}

bool
CheckpointStore::load(const CheckpointMeta &meta, std::string &bytes) const
{
    std::string path = pathFor(meta);
    if (!readWholeFile(path, bytes))
        return false;
    try {
        (void)readCheckpointMeta(bytes);
        return true;
    } catch (const SimError &error) {
        warn("ignoring corrupt cached checkpoint %s: %s", path.c_str(),
             error.what());
        bytes.clear();
        return false;
    }
}

} // namespace pubs::sim
