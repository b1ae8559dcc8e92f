/**
 * @file
 * Stress and failure-injection tests: tiny structure sizes, saturated
 * FUs, deep recursion through the RAS, heavy memory dependences, and
 * degenerate PUBS configurations. The invariant throughout: the pipeline
 * never deadlocks and commits exactly the functional instruction stream.
 */

#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "cpu/pipeline.hh"
#include "isa/assembler.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::cpu
{
namespace
{

using sim::Machine;
using sim::makeConfig;

uint64_t
functionalCount(const isa::Program &prog)
{
    emu::Emulator emu(prog);
    trace::DynInst di;
    uint64_t n = 0;
    while (emu.step(di))
        ++n;
    return n;
}

PipelineStats
drain(const isa::Program &prog, const CoreParams &params)
{
    emu::Emulator emu(prog);
    Pipeline pipe(params, emu);
    pipe.run(UINT64_MAX / 2);
    EXPECT_TRUE(pipe.drained());
    return pipe.stats();
}

/** A branchy, store/load-heavy torture kernel that halts. */
isa::Program
tortureProgram()
{
    return isa::assemble(R"(
        li r1, 0
        li r2, 500
        li r3, 0x2000
        li r5, 3
        li r9, 97
    loop:
        addi r1, r1, 1
        mul r6, r1, r9
        rem r6, r6, r5
        st r6, r3, 0
        ld r4, r3, 0
        st r4, r3, 8
        ld r7, r3, 8
        div r8, r7, r5
        beq r6, r0, a
        bne r7, r0, b
    a:
        addi r10, r10, 1
        j c
    b:
        addi r11, r11, 1
    c:
        fcvt f1, r6
        fadd f2, f2, f1
        fdiv f3, f2, f1
        blt r1, r2, loop
        halt
    )", "torture");
}

struct Geometry
{
    const char *name;
    unsigned rob, iq, lsq, intRegs, fpRegs;
};

// Without a printer gtest lists each case with a byte dump of the
// struct, so the name pointer, which moves with every run, would end up
// in the test's name.
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.name;
}

class TinyGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(TinyGeometry, CommitsExactlyTheFunctionalStream)
{
    const Geometry &g = GetParam();
    isa::Program prog = tortureProgram();
    CoreParams params = makeConfig(Machine::Base);
    params.robEntries = g.rob;
    params.iqEntries = g.iq;
    params.lsqEntries = g.lsq;
    params.intPhysRegs = g.intRegs;
    params.fpPhysRegs = g.fpRegs;
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
}

TEST_P(TinyGeometry, WorksWithPubsToo)
{
    const Geometry &g = GetParam();
    isa::Program prog = tortureProgram();
    CoreParams params = makeConfig(Machine::Pubs);
    params.robEntries = g.rob;
    params.iqEntries = g.iq;
    params.lsqEntries = g.lsq;
    params.intPhysRegs = g.intRegs;
    params.fpPhysRegs = g.fpRegs;
    params.pubs.priorityEntries = std::min(2u, g.iq - 1);
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TinyGeometry,
    ::testing::Values(Geometry{"minimal", 8, 4, 2, 40, 40},
                      Geometry{"narrow_iq", 64, 8, 16, 64, 64},
                      Geometry{"narrow_lsq", 64, 32, 2, 64, 64},
                      Geometry{"narrow_regs", 64, 32, 16, 36, 36},
                      Geometry{"tiny_rob", 6, 4, 4, 48, 48}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Stress, MshrStarvedMemorySystem)
{
    isa::Program prog = tortureProgram();
    CoreParams params = makeConfig(Machine::Base);
    params.memory.l1d.mshrs = 1;
    params.memory.l2.mshrs = 1;
    params.memory.l1i.mshrs = 1;
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
}

TEST(Stress, SingleFunctionUnits)
{
    isa::Program prog = tortureProgram();
    CoreParams params = makeConfig(Machine::Base);
    params.numIntAlu = 1;
    params.numIntMulDiv = 1;
    params.numLdSt = 1;
    params.numFpu = 1;
    params.issueWidth = 1;
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
}

TEST(Stress, DeepRecursionOverflowsRasGracefully)
{
    // Recursion depth 64 >> RAS depth 16: returns beyond the stack
    // mispredict, but execution stays correct.
    isa::Program prog = isa::assemble(R"(
        li r1, 64
        li r2, 0x80000
        jal r31, rec
        halt
    rec:
        st r31, r2, 0
        addi r2, r2, 8
        addi r1, r1, -1
        beq r1, r0, basecase
        jal r31, rec
    basecase:
        addi r2, r2, -8
        ld r31, r2, 0
        jr r31
    )", "recursion");
    CoreParams params = makeConfig(Machine::Base);
    params.rasDepth = 16;
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
    EXPECT_GT(stats.indirectMispredicts, 0u);
}

TEST(Stress, TinyPriorityPartitionUnderBlindPubs)
{
    // Blind PUBS (everything unconfident) with one priority entry and
    // the stall policy: maximal pressure on the partition.
    wl::Workload w = wl::makeWorkload("astar_like");
    CoreParams params = makeConfig(Machine::Pubs);
    params.pubs.useConfTab = false;
    params.pubs.priorityEntries = 1;
    sim::RunResult r = sim::simulate(params, w.program, 10000, 50000);
    EXPECT_EQ(r.pipeline.committed, 50000u);
    EXPECT_GT(r.pipeline.priorityStallCycles, 0u);
}

TEST(Stress, ZeroWarmupRuns)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    sim::RunResult r =
        sim::simulate(makeConfig(Machine::Pubs), w.program, 0, 20000);
    EXPECT_EQ(r.pipeline.committed, 20000u);
}

TEST(Stress, BackToBackMispredicts)
{
    // Every iteration flips a data-dependent branch with ~50% rate and
    // almost no other work: mispredict-dominated execution.
    isa::Program prog = isa::assemble(R"(
        li r2, 0x100000
        li r10, 255
        li r20, 0x20000000
        li r1, 0
        li r9, 2000
    loop:
        and r4, r1, r10
        slli r5, r4, 3
        add r5, r5, r2
        ld r3, r5, 0
        blt r3, r20, t
        xor r11, r11, r3
        j n
    t:
        add r11, r11, r3
    n:
        addi r1, r1, 1
        blt r1, r9, loop
        halt
    )", "flipper");
    Rng rng(5);
    for (int i = 0; i < 256; ++i)
        prog.addData64(0x100000 + (Addr)i * 8, rng.below(1u << 30));
    CoreParams params = makeConfig(Machine::Pubs);
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
    EXPECT_GT(stats.condMispredicts, 300u);
    EXPECT_GT(stats.squashed, 0u);
}

TEST(Stress, DistributedIqTortureDrains)
{
    isa::Program prog = tortureProgram();
    CoreParams params = makeConfig(Machine::Pubs);
    params.distributedIq = true;
    PipelineStats stats = drain(prog, params);
    EXPECT_EQ(stats.committed, functionalCount(prog));
}

TEST(Stress, LongRunStaysConsistent)
{
    // A longer mixed run: fetched - squashed == committed at drain,
    // and no instruction is lost or duplicated.
    wl::Workload w = wl::makeWorkload("xalancbmk_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::PubsAge), emu);
    pipe.run(150000);
    const PipelineStats &s = pipe.stats();
    // In-flight instructions bounded by the window.
    EXPECT_LE(s.fetched - s.squashed - s.committed,
              (uint64_t)(pipe.params().robEntries +
                         pipe.params().frontendDepth *
                             pipe.params().fetchWidth +
                         8));
}

} // namespace
} // namespace pubs::cpu
