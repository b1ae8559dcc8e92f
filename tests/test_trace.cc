/**
 * @file
 * Trace-format tests: writer/reader round trips, header validation, and
 * replay equivalence against the emulator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/error.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "trace/trace.hh"

namespace pubs::trace
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

DynInst
sample(SeqNum seq)
{
    DynInst di;
    di.seq = seq;
    di.pc = 0x1000 + seq * 4;
    di.nextPc = di.pc + 4;
    di.op = isa::Opcode::Ld;
    di.dst = 3;
    di.src1 = 5;
    di.src2 = invalidReg;
    di.effAddr = 0xdead0000 + seq;
    di.memSize = 8;
    di.taken = (seq & 1) != 0;
    return di;
}

TEST(Trace, RoundTrip)
{
    std::string path = tempPath("pubs_trace_rt.trc");
    {
        TraceWriter writer(path);
        for (SeqNum i = 0; i < 100; ++i)
            writer.write(sample(i));
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), 100u);
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 100u);
    DynInst di;
    for (SeqNum i = 0; i < 100; ++i) {
        ASSERT_TRUE(reader.next(di));
        DynInst want = sample(i);
        EXPECT_EQ(di.pc, want.pc);
        EXPECT_EQ(di.nextPc, want.nextPc);
        EXPECT_EQ(di.op, want.op);
        EXPECT_EQ(di.dst, want.dst);
        EXPECT_EQ(di.src1, want.src1);
        EXPECT_EQ(di.src2, want.src2);
        EXPECT_EQ(di.effAddr, want.effAddr);
        EXPECT_EQ(di.memSize, want.memSize);
        EXPECT_EQ(di.taken, want.taken);
    }
    EXPECT_FALSE(reader.next(di));
    std::remove(path.c_str());
}

TEST(Trace, NegativeRegistersSurvive)
{
    std::string path = tempPath("pubs_trace_neg.trc");
    {
        TraceWriter writer(path);
        DynInst di = sample(0);
        di.dst = invalidReg;
        di.src1 = invalidReg;
        writer.write(di);
        writer.close();
    }
    TraceReader reader(path);
    DynInst di;
    ASSERT_TRUE(reader.next(di));
    EXPECT_EQ(di.dst, invalidReg);
    EXPECT_EQ(di.src1, invalidReg);
    std::remove(path.c_str());
}

TEST(Trace, EmptyTrace)
{
    std::string path = tempPath("pubs_trace_empty.trc");
    {
        TraceWriter writer(path);
        writer.close();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 0u);
    DynInst di;
    EXPECT_FALSE(reader.next(di));
    std::remove(path.c_str());
}

TEST(Trace, CapturedEmulationReplaysIdentically)
{
    isa::Program prog = isa::assemble(R"(
        li r1, 0
        li r2, 20
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    )");
    std::string path = tempPath("pubs_trace_emul.trc");
    {
        emu::Emulator emu(prog);
        TraceWriter writer(path);
        DynInst di;
        while (emu.step(di))
            writer.write(di);
        writer.close();
    }
    emu::Emulator emu(prog);
    TraceReader reader(path);
    EXPECT_EQ(reader.program(), nullptr); // traces carry no static code
    DynInst fromEmu, fromTrace;
    while (emu.step(fromEmu)) {
        ASSERT_TRUE(reader.next(fromTrace));
        EXPECT_EQ(fromEmu.pc, fromTrace.pc);
        EXPECT_EQ(fromEmu.nextPc, fromTrace.nextPc);
        EXPECT_EQ((int)fromEmu.op, (int)fromTrace.op);
        EXPECT_EQ(fromEmu.taken, fromTrace.taken);
    }
    EXPECT_FALSE(reader.next(fromTrace));
    std::remove(path.c_str());
}

TEST(Trace, DstValueSurvivesRoundTrip)
{
    std::string path = tempPath("pubs_trace_dstv.trc");
    {
        TraceWriter writer(path);
        DynInst di = sample(0);
        di.dstValue = 0x123456789abcdef0ull;
        di.hasDstValue = true;
        writer.write(di);
        DynInst plain = sample(1); // no destination value
        writer.write(plain);
        writer.close();
    }
    TraceReader reader(path);
    DynInst di;
    ASSERT_TRUE(reader.next(di));
    EXPECT_TRUE(di.hasDstValue);
    EXPECT_EQ(di.dstValue, 0x123456789abcdef0ull);
    ASSERT_TRUE(reader.next(di));
    EXPECT_FALSE(di.hasDstValue);
    std::remove(path.c_str());
}

namespace
{

/** Write raw bytes as a file. */
void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write((const char *)bytes.data(), (std::streamsize)bytes.size());
}

/** Read the whole file back as bytes. */
std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

} // namespace

TEST(TraceErrors, MissingFile)
{
    EXPECT_THROW(TraceReader("/nonexistent/nope.trc"), TraceError);
}

TEST(TraceErrors, WrongMagic)
{
    std::string path = tempPath("pubs_trace_badmagic.trc");
    writeBytes(path, std::vector<uint8_t>(32, 'x'));
    EXPECT_THROW(TraceReader reader(path), TraceError);

    // The retired v0 format (magic "PUBSTRC1", u64 count, one 40-byte
    // record) is no longer read either.
    std::vector<uint8_t> v0(16 + 40, 0);
    std::memcpy(v0.data(), "PUBSTRC1", 8);
    v0[8] = 1;
    writeBytes(path, v0);
    EXPECT_THROW(TraceReader reader(path), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, TruncatedHeader)
{
    std::string path = tempPath("pubs_trace_shorthdr.trc");
    writeBytes(path, {'P', 'U', 'B', 'S'});
    EXPECT_THROW(TraceReader reader(path), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, TruncatedRecordsDetectedAtOpen)
{
    std::string path = tempPath("pubs_trace_trunc.trc");
    {
        TraceWriter writer(path);
        for (SeqNum i = 0; i < 10; ++i)
            writer.write(sample(i));
        writer.close();
    }
    // Chop off the last record: the file-size check must reject it.
    std::vector<uint8_t> bytes = readBytes(path);
    bytes.resize(bytes.size() - 20);
    writeBytes(path, bytes);
    EXPECT_THROW(TraceReader reader(path), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, CorruptOpcodeRejected)
{
    std::string path = tempPath("pubs_trace_badop.trc");
    {
        TraceWriter writer(path);
        writer.write(sample(0));
        writer.close();
    }
    std::vector<uint8_t> bytes = readBytes(path);
    bytes[32 + 24] = 0xff; // opcode byte of record 0
    writeBytes(path, bytes);
    TraceReader reader(path);
    DynInst di;
    EXPECT_THROW(reader.next(di), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, NonzeroReservedBytesRejected)
{
    std::string path = tempPath("pubs_trace_badresv.trc");
    {
        TraceWriter writer(path);
        writer.write(sample(0));
        writer.close();
    }
    std::vector<uint8_t> bytes = readBytes(path);
    bytes[32 + 37] = 0x42; // a reserved byte of record 0
    writeBytes(path, bytes);
    TraceReader reader(path);
    DynInst di;
    EXPECT_THROW(reader.next(di), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, UnsupportedVersionRejected)
{
    std::string path = tempPath("pubs_trace_badver.trc");
    {
        TraceWriter writer(path);
        writer.close();
    }
    std::vector<uint8_t> bytes = readBytes(path);
    bytes[8] = 99; // version field
    writeBytes(path, bytes);
    EXPECT_THROW(TraceReader reader(path), TraceError);
    std::remove(path.c_str());
}

TEST(TraceErrors, HeaderCountMismatchRejected)
{
    std::string path = tempPath("pubs_trace_count.trc");
    {
        TraceWriter writer(path);
        writer.write(sample(0));
        writer.close();
    }
    std::vector<uint8_t> bytes = readBytes(path);
    bytes[16] = 9; // count field claims 9 records, file holds 1
    writeBytes(path, bytes);
    EXPECT_THROW(TraceReader reader(path), TraceError);
    std::remove(path.c_str());
}

TEST(VectorSourceTest, DrainsInOrder)
{
    std::vector<DynInst> insts = {sample(0), sample(1), sample(2)};
    VectorSource source(insts);
    DynInst di;
    for (SeqNum i = 0; i < 3; ++i) {
        ASSERT_TRUE(source.next(di));
        EXPECT_EQ(di.seq, i);
    }
    EXPECT_FALSE(source.next(di));
}

} // namespace
} // namespace pubs::trace
