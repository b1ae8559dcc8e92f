/**
 * @file
 * Functional-emulator tests: instruction semantics, sparse memory and
 * its copy-on-write program image, control flow, and end-to-end mini
 * programs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "common/checksum.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "workloads/suite.hh"

namespace pubs::emu
{
namespace
{

using isa::Opcode;
using isa::ProgramBuilder;
using trace::DynInst;

/** Run @p source to halt (bounded) and return the emulator. */
std::unique_ptr<Emulator>
runAsm(const std::string &source, uint64_t maxSteps = 100000)
{
    static std::vector<std::unique_ptr<isa::Program>> keepAlive;
    keepAlive.push_back(
        std::make_unique<isa::Program>(isa::assemble(source)));
    auto emu = std::make_unique<Emulator>(*keepAlive.back());
    DynInst di;
    uint64_t steps = 0;
    while (emu->step(di)) {
        if (++steps > maxSteps)
            ADD_FAILURE() << "program did not halt";
        if (steps > maxSteps)
            break;
    }
    return emu;
}

TEST(SparseMemory, ByteAndWordAccess)
{
    SparseMemory mem;
    EXPECT_EQ(mem.readByte(0x1234), 0); // untouched memory reads zero
    mem.writeByte(0x1234, 0xab);
    EXPECT_EQ(mem.readByte(0x1234), 0xab);
    mem.write64(0x2000, 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(0x2000), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x2000, 4), 0x55667788u);
}

TEST(SparseMemory, PageCrossing)
{
    SparseMemory mem;
    Addr addr = SparseMemory::pageBytes - 3;
    mem.write64(addr, 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(addr), 0xdeadbeefcafebabeull);
    EXPECT_GE(mem.pagesOwned(), 2u);
}

TEST(SparseMemory, Doubles)
{
    SparseMemory mem;
    mem.writeF64(0x3000, 3.14159);
    EXPECT_DOUBLE_EQ(mem.readF64(0x3000), 3.14159);
}

TEST(Emulator, ArithmeticSemantics)
{
    auto emu = runAsm(R"(
        li r1, 12
        li r2, 5
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        div r6, r1, r2
        rem r7, r1, r2
        and r8, r1, r2
        or  r9, r1, r2
        xor r10, r1, r2
        slt r11, r2, r1
        li r12, 1
        slli r12, r12, 63
        addi r13, r12, -1
        add r14, r13, r13
        sub r15, r12, r2
        mul r16, r13, r13
        addi r17, r13, 1
        halt
    )");
    EXPECT_EQ(emu->intReg(3), 17);
    EXPECT_EQ(emu->intReg(4), 7);
    EXPECT_EQ(emu->intReg(5), 60);
    EXPECT_EQ(emu->intReg(6), 2);
    EXPECT_EQ(emu->intReg(7), 2);
    EXPECT_EQ(emu->intReg(8), 4);
    EXPECT_EQ(emu->intReg(9), 13);
    EXPECT_EQ(emu->intReg(10), 9);
    EXPECT_EQ(emu->intReg(11), 1);
    // Overflow wraps in two's complement.
    EXPECT_EQ(emu->intReg(13), INT64_MAX);
    EXPECT_EQ(emu->intReg(14), -2);
    EXPECT_EQ(emu->intReg(15), INT64_MAX - 4);
    EXPECT_EQ(emu->intReg(16), 1);
    EXPECT_EQ(emu->intReg(17), INT64_MIN);
}

TEST(Emulator, ImmediateAndShiftSemantics)
{
    auto emu = runAsm(R"(
        li r1, -8
        addi r2, r1, 3
        slli r3, r1, 2
        srai r4, r1, 1
        li r5, 8
        srli r6, r5, 2
        slti r7, r1, 0
        halt
    )");
    EXPECT_EQ(emu->intReg(2), -5);
    EXPECT_EQ(emu->intReg(3), -32);
    EXPECT_EQ(emu->intReg(4), -4);
    EXPECT_EQ(emu->intReg(6), 2);
    EXPECT_EQ(emu->intReg(7), 1);
}

TEST(Emulator, DivideByZeroIsDefined)
{
    auto emu = runAsm(R"(
        li r1, 42
        li r2, 0
        div r3, r1, r2
        rem r4, r1, r2
        li r5, 1
        slli r5, r5, 63
        li r6, -1
        div r7, r5, r6
        rem r8, r5, r6
        halt
    )");
    EXPECT_EQ(emu->intReg(3), -1); // RISC-V-style semantics
    EXPECT_EQ(emu->intReg(4), 42);
    // The one overflowing quotient, INT64_MIN / -1, as RISC-V defines it.
    EXPECT_EQ(emu->intReg(7), INT64_MIN);
    EXPECT_EQ(emu->intReg(8), 0);
}

TEST(Emulator, RegisterZeroIsHardwired)
{
    auto emu = runAsm(R"(
        li r0, 99
        addi r1, r0, 1
        halt
    )");
    EXPECT_EQ(emu->intReg(0), 0);
    EXPECT_EQ(emu->intReg(1), 1);
}

TEST(Emulator, MemorySemantics)
{
    auto emu = runAsm(R"(
        li r1, 0x2000
        li r2, -7
        st r2, r1, 0
        ld r3, r1, 0
        sw r2, r1, 8
        lw r4, r1, 8
        halt
    )");
    EXPECT_EQ(emu->intReg(3), -7);
    EXPECT_EQ(emu->intReg(4), -7); // lw sign-extends
}

TEST(Emulator, FpSemantics)
{
    auto emu = runAsm(R"(
        li r1, 3
        li r2, 4
        fcvt f1, r1
        fcvt f2, r2
        fadd f3, f1, f2
        fmul f4, f1, f2
        fdiv f5, f2, f1
        fclt r3, f1, f2
        ficvt r4, f4
        li r5, 1
        slli r5, r5, 62
        fcvt f6, r5
        fmul f6, f6, f6
        ficvt r6, f6
        fmul f7, f6, f6
        fmul f7, f7, f7
        fmul f7, f7, f7
        fmul f7, f7, f7
        fsub f8, f7, f7
        ficvt r8, f8
        halt
    )");
    EXPECT_DOUBLE_EQ(emu->fpReg(3), 7.0);
    EXPECT_DOUBLE_EQ(emu->fpReg(4), 12.0);
    EXPECT_NEAR(emu->fpReg(5), 4.0 / 3.0, 1e-12);
    EXPECT_EQ(emu->intReg(3), 1);
    EXPECT_EQ(emu->intReg(4), 12);
    // Out of range (2^124) and NaN (inf - inf) convert to INT64_MIN.
    EXPECT_EQ(emu->intReg(6), INT64_MIN);
    EXPECT_TRUE(std::isnan(emu->fpReg(8)));
    EXPECT_EQ(emu->intReg(8), INT64_MIN);
}

TEST(Emulator, BranchDirections)
{
    auto emu = runAsm(R"(
        li r1, 1
        li r2, 2
        blt r2, r1, bad
        bge r1, r2, bad
        beq r1, r2, bad
        bne r1, r1, bad
        li r10, 1
        halt
    bad:
        li r10, 2
        halt
    )");
    EXPECT_EQ(emu->intReg(10), 1);
}

TEST(Emulator, UnsignedBranches)
{
    auto emu = runAsm(R"(
        li r1, -1        # as unsigned: max
        li r2, 1
        bltu r1, r2, bad
        bgeu r1, r2, ok
    bad:
        li r10, 2
        halt
    ok:
        li r10, 1
        halt
    )");
    EXPECT_EQ(emu->intReg(10), 1);
}

TEST(Emulator, CallAndReturn)
{
    auto emu = runAsm(R"(
        li r1, 5
        jal r31, double
        jal r31, double
        halt
    double:
        add r1, r1, r1
        jr r31
    )");
    EXPECT_EQ(emu->intReg(1), 20);
}

TEST(Emulator, LoopComputesFibonacci)
{
    auto emu = runAsm(R"(
        li r1, 0     # fib(0)
        li r2, 1     # fib(1)
        li r3, 10    # count
    loop:
        add r4, r1, r2
        add r1, r2, r0
        add r2, r4, r0
        addi r3, r3, -1
        bne r3, r0, loop
        halt
    )");
    EXPECT_EQ(emu->intReg(2), 89); // fib(11)
}

TEST(Emulator, DynInstRecordsOutcomes)
{
    isa::Program prog = isa::assemble(R"(
        li r1, 1
        beq r1, r0, skip
        ld r2, r1, 0x1fff
    skip:
        halt
    )");
    Emulator emu(prog);
    DynInst di;
    ASSERT_TRUE(emu.step(di)); // li
    EXPECT_EQ(di.op, Opcode::Li);
    EXPECT_EQ(di.nextPc, di.pc + instBytes);
    ASSERT_TRUE(emu.step(di)); // beq (not taken)
    EXPECT_TRUE(di.isCondBranch());
    EXPECT_FALSE(di.taken);
    ASSERT_TRUE(emu.step(di)); // ld
    EXPECT_EQ(di.effAddr, 0x2000u);
    EXPECT_EQ(di.memSize, 8);
    ASSERT_TRUE(emu.step(di)); // halt
    EXPECT_FALSE(emu.step(di));
    EXPECT_TRUE(emu.halted());
}

TEST(Emulator, DataInitsInstalledOnReset)
{
    ProgramBuilder b("t");
    b.li(1, 0x4000).ld(2, 1, 0).halt();
    b.data64(0x4000, 777);
    isa::Program prog = b.build();
    Emulator emu(prog);
    DynInst di;
    while (emu.step(di)) {}
    EXPECT_EQ(emu.intReg(2), 777);

    emu.reset();
    EXPECT_EQ(emu.instsRetired(), 0u);
    while (emu.step(di)) {}
    EXPECT_EQ(emu.intReg(2), 777);
}

/**
 * Adds 1 to each of the 1024 words at 0x4000, which start as their
 * index: a loop that stores into both pages of its image.
 */
isa::Program
incrementImageProgram()
{
    isa::Program prog = isa::assemble(R"(
        li r1, 0x4000
        li r2, 0
        li r3, 1024
    loop:
        ld r4, r1, 0
        addi r4, r4, 1
        st r4, r1, 0
        addi r1, r1, 8
        addi r2, r2, 1
        blt r2, r3, loop
        halt
    )");
    for (uint64_t i = 0; i < 1024; ++i)
        prog.addData64(0x4000 + 8 * i, i);
    return prog;
}

void
runToHalt(Emulator &emu)
{
    DynInst di;
    while (emu.step(di)) {}
}

TEST(EmulatorImage, StoreThroughOneEmulatorLeavesTheOtherAndTheImage)
{
    isa::Program prog = incrementImageProgram();
    Emulator writer(prog), reader(prog);
    runToHalt(writer);
    EXPECT_EQ(writer.memory().read64(0x4000 + 8 * 7), 8u);
    EXPECT_EQ(writer.memory().pagesOwned(), 2u);
    EXPECT_EQ(reader.memory().read64(0x4000 + 8 * 7), 7u);
    EXPECT_EQ(reader.memory().pagesOwned(), 0u);
    auto image = prog.image();
    const isa::Program::Page *page =
        image->page(0x4000 / isa::Program::pageBytes);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ((*page)[8 * 7], 7u); // word 7's low byte
}

TEST(EmulatorImage, ResetRestoresTheImageAndDropsWrittenPages)
{
    isa::Program prog = incrementImageProgram();
    Emulator emu(prog);
    runToHalt(emu);
    emu.memory().write64(0x100000, 5); // a page the image lacks
    EXPECT_EQ(emu.memory().pagesOwned(), 3u);
    emu.reset();
    EXPECT_EQ(emu.memory().pagesOwned(), 0u);
    EXPECT_EQ(emu.memory().read64(0x4000 + 8 * 1023), 1023u);
    EXPECT_EQ(emu.memory().read64(0x100000), 0u);
    runToHalt(emu);
    EXPECT_EQ(emu.memory().read64(0x4000 + 8 * 1023), 1024u);
}

TEST(EmulatorImage, CopyArchStateIsIndependentAndSharesTheImage)
{
    isa::Program prog = incrementImageProgram();
    Emulator source(prog), copy(prog);
    source.memory().write64(0x4000, 100); // owns page 4 only
    copy.copyArchState(source);
    EXPECT_EQ(copy.memory().pagesOwned(), 1u);
    EXPECT_EQ(copy.memory().read64(0x4000), 100u);
    EXPECT_EQ(copy.memory().read64(0x5000), 512u); // page 5, the image
    copy.memory().write64(0x4000, 200);
    copy.memory().write64(0x5000, 300);
    EXPECT_EQ(source.memory().read64(0x4000), 100u);
    EXPECT_EQ(source.memory().read64(0x5000), 512u);
    EXPECT_EQ(source.memory().pagesOwned(), 1u);
    EXPECT_EQ(Emulator(prog).memory().read64(0x5000), 512u);
}

TEST(EmulatorImage, FreshMcfEmulatorCopiesNothing)
{
    wl::Workload w = wl::makeWorkload("mcf_like");
    Emulator emu(w.program);
    EXPECT_EQ(w.program.image()->pageCount(), 4096u); // 16 MB of nodes
    EXPECT_EQ(w.program.image()->runs().size(), 1u);  // in one run
    EXPECT_EQ(emu.memory().pagesOwned(), 0u);
}

/**
 * The oracle for the copy-on-write memory's checkpoint state: the CRC32
 * of Emulator::serialize (registers, PC and the owned pages) for every
 * workload at seed 1, fresh and after 200,000 steps, and for a program
 * that stores into its own image. Any change to the owned page set, the
 * page order or a byte fails it. The state holds no image page, so
 * every fresh emulator serializes alike; ProgramFingerprint pins the
 * image bytes.
 */
TEST(EmulatorImage, StateMatchesParentForEveryWorkload)
{
    struct Expected
    {
        const char *name;
        uint32_t fresh;
        uint32_t stepped;
    };
    const Expected expected[] = {
        {"astar_like", 0x2edd7864u, 0x8dcc8a3du},
        {"bzip2_like", 0x2edd7864u, 0x3366b281u},
        {"gcc_like", 0x2edd7864u, 0xc0b59ae8u},
        {"gobmk_like", 0x2edd7864u, 0xa3a370bdu},
        {"mcf_like", 0x2edd7864u, 0x876a9eb8u},
        {"omnetpp_like", 0x2edd7864u, 0x1240993cu},
        {"perlbench_like", 0x2edd7864u, 0x57bebebeu},
        {"sjeng_like", 0x2edd7864u, 0x1d306de5u},
        {"soplex_like", 0x2edd7864u, 0xe5c871d9u},
        {"xalancbmk_like", 0x2edd7864u, 0x682deb8fu},
        {"bwaves_like", 0x2edd7864u, 0x100ac0f2u},
        {"gromacs_like", 0x2edd7864u, 0x63c96b25u},
        {"h264ref_like", 0x2edd7864u, 0x94626eafu},
        {"hmmer_like", 0x2edd7864u, 0x0aad9a9au},
        {"lbm_like", 0x2edd7864u, 0xb9228240u},
        {"libquantum_like", 0x2edd7864u, 0x1da036c9u},
        {"milc_like", 0x2edd7864u, 0xd5a5530au},
        {"namd_like", 0x2edd7864u, 0x5d1a9da4u},
    };
    ASSERT_EQ(std::size(expected), wl::suiteNames().size());
    auto stateCrc = [](const Emulator &emu) {
        Serializer s;
        emu.serialize(s);
        return crc32(s.data());
    };
    for (const Expected &e : expected) {
        wl::Workload w = wl::makeWorkload(e.name, 1);
        Emulator emu(w.program);
        EXPECT_EQ(stateCrc(emu), e.fresh) << e.name;
        DynInst di;
        for (int i = 0; i < 200000; ++i)
            ASSERT_TRUE(emu.step(di)) << e.name;
        EXPECT_EQ(stateCrc(emu), e.stepped) << e.name;
    }

    // The workloads store only outside their images, so this program
    // pins the first-store copy: page 4 half written, then both pages.
    // Once it owns both its image pages, its state is what it was when
    // the state held the image too.
    isa::Program prog = incrementImageProgram();
    Emulator emu(prog);
    EXPECT_EQ(stateCrc(emu), 0x2edd7864u);
    DynInst di;
    for (int i = 0; i < 3000; ++i)
        ASSERT_TRUE(emu.step(di));
    EXPECT_EQ(stateCrc(emu), 0x176d38b8u);
    runToHalt(emu);
    EXPECT_EQ(stateCrc(emu), 0x8a40b1e9u);
}

TEST(EmulatorImage, SharedProgramAcrossThreads)
{
    const isa::Program prog = incrementImageProgram();
    auto run = [&prog](uint64_t &sum) {
        Emulator emu(prog);
        for (int round = 0; round < 20; ++round) {
            emu.reset();
            runToHalt(emu);
        }
        sum = 0;
        for (uint64_t i = 0; i < 1024; ++i)
            sum += emu.memory().read64(0x4000 + 8 * i);
    };
    uint64_t sumA = 0, sumB = 0;
    std::thread a(run, std::ref(sumA));
    std::thread b(run, std::ref(sumB));
    a.join();
    b.join();
    const uint64_t expected = 1023 * 1024 / 2 + 1024;
    EXPECT_EQ(sumA, expected);
    EXPECT_EQ(sumB, expected);
    Emulator fresh(prog);
    EXPECT_EQ(fresh.memory().read64(0x4000 + 8 * 1023), 1023u);
}

TEST(EmulatorImage, GeneratedPagesPublishOnceAcrossThreads)
{
    constexpr size_t pages = 64;
    constexpr size_t pageWords = isa::Program::pageBytes / 8;
    constexpr Addr base = 0x100000;
    ProgramBuilder b("t");
    b.halt();
    isa::Program prog = b.build();
    Rng rng(21);
    prog.fillRandom64(base, pages * pageWords, rng,
                      [](uint64_t draw) { return draw >> 1; });
    uint64_t expected = 0;
    Rng twin(21);
    for (size_t i = 0; i < pages * pageWords; ++i)
        expected += twin.next() >> 1;

    // Four emulators on one program read every page, each starting at
    // a different page, and note the image page each read came from.
    constexpr size_t readers = 4;
    using Page = isa::Program::Page;
    std::vector<std::vector<const Page *>> seen(
        readers, std::vector<const Page *>(pages));
    std::vector<uint64_t> sums(readers);
    auto read = [&](size_t t) {
        Emulator emu(prog);
        for (size_t k = 0; k < pages; ++k) {
            const size_t p = (k + t * 17) % pages;
            const Addr at = base + p * isa::Program::pageBytes;
            for (size_t w = 0; w < pageWords; ++w)
                sums[t] += emu.memory().read64(at + w * 8);
            seen[t][p] = prog.image()->page(at / isa::Program::pageBytes);
        }
    };
    std::vector<std::thread> threads;
    for (size_t t = 0; t < readers; ++t)
        threads.emplace_back(read, t);
    for (std::thread &thread : threads)
        thread.join();
    for (size_t t = 0; t < readers; ++t) {
        EXPECT_EQ(sums[t], expected) << "reader " << t;
        for (size_t p = 0; p < pages; ++p)
            ASSERT_EQ(seen[t][p], seen[0][p]) << "reader " << t << " page "
                                              << p;
    }
    EXPECT_EQ(prog.image()->publishedPages(), pages);
}

TEST(Emulator, DeterministicAcrossRuns)
{
    isa::Program prog = isa::assemble(R"(
        li r1, 0
        li r2, 0x3000
    loop:
        addi r1, r1, 1
        st r1, r2, 0
        ld r3, r2, 0
        blt r1, r4, loop
        halt
    )");
    // r4 == 0, so the loop body runs once; just confirm two emulators
    // agree step by step.
    Emulator a(prog), bEmu(prog);
    DynInst da, db;
    while (true) {
        bool ra = a.step(da);
        bool rb = bEmu.step(db);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        EXPECT_EQ(da.pc, db.pc);
        EXPECT_EQ(da.nextPc, db.nextPc);
        EXPECT_EQ(da.effAddr, db.effAddr);
    }
}

TEST(Emulator, ExposesStaticProgram)
{
    isa::Program prog = isa::assemble("nop\nhalt\n");
    Emulator emu(prog);
    trace::InstSource &source = emu;
    EXPECT_EQ(&source.program(), &prog);
}

} // namespace
} // namespace pubs::emu
