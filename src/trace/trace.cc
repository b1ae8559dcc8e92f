#include "trace/trace.hh"

#include <cerrno>
#include <cstring>

#include "common/error.hh"
#include "common/logging.hh"

namespace pubs::trace
{

namespace
{

// On-disk record layout (little-endian, packed by hand for portability):
// byte 33 holds a flags byte (bit 0 = dstValue present), bytes 34..39
// are reserved and must be zero, and bytes 40..47 carry the
// architectural destination value.
constexpr size_t recordBytes = 48;
constexpr size_t headerBytes = 32;
constexpr uint8_t flagHasDstValue = 0x01;

void
pack64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = (v >> (8 * i)) & 0xff;
}

uint64_t
unpack64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (uint64_t)in[i] << (8 * i);
    return v;
}

void
pack32(uint8_t *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = (v >> (8 * i)) & 0xff;
}

uint32_t
unpack32(const uint8_t *in)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= (uint32_t)in[i] << (8 * i);
    return v;
}

void
pack16(uint8_t *out, uint16_t v)
{
    out[0] = v & 0xff;
    out[1] = (v >> 8) & 0xff;
}

uint16_t
unpack16(const uint8_t *in)
{
    return (uint16_t)(in[0] | (in[1] << 8));
}

[[noreturn]] void
traceFail(const std::string &path, const std::string &what)
{
    throw TraceError("trace file '" + path + "': " + what);
}

/** Size of @p file in bytes via seek-to-end (position is restored). */
long
fileSize(std::FILE *file)
{
    long pos = std::ftell(file);
    if (pos < 0 || std::fseek(file, 0, SEEK_END) != 0)
        return -1;
    long size = std::ftell(file);
    if (std::fseek(file, pos, SEEK_SET) != 0)
        return -1;
    return size;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        traceFail(path_, std::string("cannot open for writing: ") +
                             std::strerror(errno));
    // v1 header: magic + version + record size + count placeholder +
    // reserved. The count is patched in close().
    uint8_t header[headerBytes] = {};
    std::memcpy(header, traceMagic, sizeof(traceMagic));
    pack32(header + 8, traceFormatVersion);
    pack32(header + 12, (uint32_t)recordBytes);
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
        std::fclose(file_);
        file_ = nullptr;
        traceFail(path_, "short write of trace header");
    }
}

TraceWriter::~TraceWriter()
{
    if (!file_)
        return;
    // Destructors must not throw; a failing implicit close degrades to a
    // warning. Call close() explicitly to get the error.
    try {
        close();
    } catch (const SimError &e) {
        warn("%s", e.what());
    }
}

void
TraceWriter::write(const DynInst &inst)
{
    panic_if(!file_, "write after close");
    uint8_t rec[recordBytes] = {};
    pack64(rec + 0, inst.pc);
    pack64(rec + 8, inst.nextPc);
    pack64(rec + 16, inst.effAddr);
    rec[24] = (uint8_t)inst.op;
    pack16(rec + 25, (uint16_t)inst.dst);
    pack16(rec + 27, (uint16_t)inst.src1);
    pack16(rec + 29, (uint16_t)inst.src2);
    rec[31] = inst.memSize;
    rec[32] = inst.taken ? 1 : 0;
    rec[33] = inst.hasDstValue ? flagHasDstValue : 0;
    // Bytes 34..39 reserved (zero).
    pack64(rec + 40, inst.dstValue);
    size_t n = std::fwrite(rec, 1, recordBytes, file_);
    if (n != recordBytes)
        traceFail(path_, "short write of trace record (disk full?)");
    ++count_;
}

void
TraceWriter::close()
{
    panic_if(!file_, "double close");
    std::FILE *file = file_;
    file_ = nullptr; // never retry a failing close

    // Patch the record count into the header.
    uint8_t countBytes[8];
    pack64(countBytes, count_);
    if (std::fseek(file, 16, SEEK_SET) != 0) {
        std::fclose(file);
        traceFail(path_, std::string("cannot seek to header: ") +
                             std::strerror(errno));
    }
    if (std::fwrite(countBytes, 1, sizeof(countBytes), file) !=
        sizeof(countBytes)) {
        std::fclose(file);
        traceFail(path_, "cannot patch record count into header "
                         "(disk full?)");
    }
    if (std::fclose(file) != 0) {
        traceFail(path_, std::string("close failed, contents not "
                                     "durable: ") +
                             std::strerror(errno));
    }
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        traceFail(path_,
                  std::string("cannot open: ") + std::strerror(errno));

    char magic[sizeof(traceMagic)];
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic))
        traceFail(path_, "too short to hold a trace header");

    if (std::memcmp(magic, traceMagic, sizeof(magic)) != 0)
        traceFail(path_, "not a PUBS trace file (bad magic)");

    // Version, record size, count, reserved.
    uint8_t rest[headerBytes - sizeof(traceMagic)];
    if (std::fread(rest, 1, sizeof(rest), file_) != sizeof(rest))
        traceFail(path_, "truncated trace header");
    uint32_t version = unpack32(rest + 0);
    if (version != traceFormatVersion)
        traceFail(path_, "unsupported trace format version " +
                             std::to_string(version) +
                             " (this build reads version " +
                             std::to_string(traceFormatVersion) + ")");
    uint32_t declaredRecordBytes = unpack32(rest + 4);
    if (declaredRecordBytes != recordBytes)
        traceFail(path_, "header declares " +
                             std::to_string(declaredRecordBytes) +
                             "-byte records, expected " +
                             std::to_string(recordBytes));
    total_ = unpack64(rest + 8);
    if (unpack64(rest + 16) != 0)
        traceFail(path_, "nonzero reserved bytes in header "
                         "(corrupt or written by a newer tool)");

    // A bit-flipped count could make total_ * recordBytes wrap and
    // collide with the real file size; reject it before the multiply.
    if (total_ > (UINT64_MAX - headerBytes) / recordBytes)
        traceFail(path_, "implausible record count " +
                             std::to_string(total_) + " (corrupt header)");

    // The header's record count must agree with what is actually on
    // disk; a mismatch means a truncated copy or an unfinalised writer.
    long size = fileSize(file_);
    if (size >= 0) {
        uint64_t expected = headerBytes + total_ * recordBytes;
        if ((uint64_t)size != expected)
            traceFail(path_, "header promises " + std::to_string(total_) +
                                 " records (" + std::to_string(expected) +
                                 " bytes) but the file holds " +
                                 std::to_string(size) + " bytes");
    }
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::next(DynInst &out)
{
    if (read_ >= total_)
        return false;
    uint8_t rec[recordBytes] = {};
    if (std::fread(rec, 1, recordBytes, file_) != recordBytes)
        traceFail(path_, "truncated record " + std::to_string(read_) +
                             " of " + std::to_string(total_));
    if (rec[24] >= (uint8_t)isa::Opcode::NumOpcodes)
        traceFail(path_, "corrupt opcode " + std::to_string(rec[24]) +
                             " in record " + std::to_string(read_));
    for (size_t i = 34; i < 40; ++i) {
        if (rec[i] != 0)
            traceFail(path_, "nonzero reserved byte " + std::to_string(i) +
                                 " in record " + std::to_string(read_) +
                                 " (corrupt or written by a newer tool)");
    }
    out = DynInst{};
    out.seq = read_;
    out.pc = unpack64(rec + 0);
    out.nextPc = unpack64(rec + 8);
    out.effAddr = unpack64(rec + 16);
    out.op = (isa::Opcode)rec[24];
    out.dst = (RegId)unpack16(rec + 25);
    out.src1 = (RegId)unpack16(rec + 27);
    out.src2 = (RegId)unpack16(rec + 29);
    out.memSize = rec[31];
    out.taken = rec[32] != 0;
    out.hasDstValue = (rec[33] & flagHasDstValue) != 0;
    out.dstValue = unpack64(rec + 40);
    if ((rec[33] & ~flagHasDstValue) != 0)
        traceFail(path_, "unknown flag bits 0x" + std::to_string(rec[33]) +
                             " in record " + std::to_string(read_));
    ++read_;
    return true;
}

} // namespace pubs::trace
