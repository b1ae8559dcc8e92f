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
 * of @p bytes and return a reader positioned at the payload. Every
 * failure is a CheckpointError.
 */
Deserializer
validatedPayload(const std::string &bytes)
{
    if (bytes.size() < headerBytes)
        throw CheckpointError("checkpoint shorter than its header");
    Deserializer d(bytes);
    char magic[sizeof(checkpointMagic)];
    d.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, checkpointMagic, sizeof(magic)) != 0)
        throw CheckpointError("not a checkpoint file (bad magic)");
    uint32_t version = d.u32();
    if (version != checkpointFormatVersion) {
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(checkpointFormatVersion) + ")");
    }
    uint64_t payloadLen = d.u64();
    uint32_t storedPayloadCrc = d.u32();
    uint32_t storedHeaderCrc = d.u32();
    if (crc32(bytes.data(), headerBytes - 4) != storedHeaderCrc)
        throw CheckpointError("checkpoint header fails its CRC");
    if (d.remaining() != payloadLen)
        throw CheckpointError("checkpoint payload length mismatch");
    if (crc32(bytes.data() + headerBytes, payloadLen) != storedPayloadCrc)
        throw CheckpointError("checkpoint payload fails its CRC");
    return d;
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

    Serializer header;
    header.bytes(checkpointMagic, sizeof(checkpointMagic));
    header.u32(checkpointFormatVersion);
    header.u64(payload.size());
    header.u32(crc32(payload.data()));
    header.u32(crc32(header.data()));
    return header.data() + payload.data();
}

CheckpointMeta
decodeCheckpoint(const std::string &bytes, emu::Emulator &emu,
                 cpu::Pipeline &pipeline)
{
    Deserializer d = validatedPayload(bytes);
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
    Deserializer d = validatedPayload(bytes);
    d.beginObject("checkpoint");
    return readMeta(d);
}

std::string
CheckpointStore::pathFor(const CheckpointMeta &meta) const
{
    ContentKey key;
    key.mix(meta.workload);
    key.mix(std::to_string(meta.programCrc));
    key.mix(std::to_string(meta.paramsFp));
    key.mix(std::to_string(meta.skipInsts));
    key.mix(std::to_string(checkpointFormatVersion));
    char name[96];
    std::snprintf(name, sizeof(name), "ckpt-%016llx.pubsckpt",
                  (unsigned long long)key.value());
    return dir_ + "/" + name;
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
