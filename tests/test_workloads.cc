/**
 * @file
 * Workload-suite tests: every kernel builds and emulates cleanly, data
 * initialisation is correct, and the suite's D-BP / memory-intensity
 * placement matches its declared expectations.
 */

#include <gtest/gtest.h>

#include "common/error.hh"

#include "emu/emulator.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"
#include "workloads/suite.hh"

namespace pubs::wl
{
namespace
{

TEST(Suite, NamesAreStableAndComplete)
{
    auto names = suiteNames();
    EXPECT_EQ(names.size(), 18u);
    EXPECT_NE(std::find(names.begin(), names.end(), "sjeng_like"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "mcf_like"),
              names.end());
}

TEST(Suite, UnknownNameIsFatal)
{
    EXPECT_THROW({ makeWorkload("nonexistent"); }, SimError);
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, EmulatesWithoutFaulting)
{
    Workload w = makeWorkload(GetParam());
    emu::Emulator emu(w.program);
    trace::DynInst di;
    for (int i = 0; i < 30000; ++i)
        ASSERT_TRUE(emu.step(di)) << "program halted unexpectedly";
}

TEST_P(EveryWorkload, IsDeterministicForAGivenSeed)
{
    Workload a = makeWorkload(GetParam(), 7);
    Workload b = makeWorkload(GetParam(), 7);
    ASSERT_EQ(a.program.size(), b.program.size());
    emu::Emulator ea(a.program), eb(b.program);
    trace::DynInst da, db;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(ea.step(da));
        ASSERT_TRUE(eb.step(db));
        ASSERT_EQ(da.pc, db.pc);
        ASSERT_EQ(da.effAddr, db.effAddr);
    }
}

TEST_P(EveryWorkload, SeedChangesTheData)
{
    Workload a = makeWorkload(GetParam(), 1);
    Workload b = makeWorkload(GetParam(), 2);
    // Same code, different data.
    EXPECT_EQ(a.program.size(), b.program.size());
    bool differs = false;
    const auto &da = a.program.dataInits();
    const auto &db = b.program.dataInits();
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size() && !differs; ++i)
        differs = da[i].bytes != db[i].bytes;
    EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &info) { return info.param; });

TEST(Kernels, BranchyBiasControlsTakenRate)
{
    auto measure = [](double bias) {
        BranchyParams p;
        p.takenBias = bias;
        p.elems = 1 << 10;
        isa::Program prog = branchyProgram("t", p);
        emu::Emulator emu(prog);
        trace::DynInst di;
        uint64_t taken = 0, total = 0;
        for (int i = 0; i < 60000; ++i) {
            emu.step(di);
            if (di.op == isa::Opcode::Blt) {
                ++total;
                taken += di.taken;
            }
        }
        return (double)taken / (double)total;
    };
    EXPECT_NEAR(measure(0.5), 0.5, 0.06);
    EXPECT_NEAR(measure(0.9), 0.9, 0.06);
}

TEST(Kernels, UnrolledBranchyGrowsTheStaticFootprint)
{
    BranchyParams small;
    small.elems = 1 << 10;
    BranchyParams big = small;
    big.unroll = 16;
    isa::Program a = branchyProgram("a", small);
    isa::Program bProg = branchyProgram("b", big);
    EXPECT_GT(bProg.size(), 10 * a.size());

    // The unrolled program still runs and keeps its branch bias.
    emu::Emulator emu(bProg);
    trace::DynInst di;
    uint64_t taken = 0, total = 0;
    for (int i = 0; i < 40000; ++i) {
        ASSERT_TRUE(emu.step(di));
        if (di.op == isa::Opcode::Blt) {
            ++total;
            taken += di.taken;
        }
    }
    EXPECT_NEAR((double)taken / (double)total, small.takenBias, 0.07);
}

TEST(Kernels, PointerChaseCoversTheWholeRing)
{
    PointerChaseParams p;
    p.nodes = 1 << 8;
    p.chains = 1;
    isa::Program prog = pointerChaseProgram("t", p);
    emu::Emulator emu(prog);
    trace::DynInst di;
    std::set<Addr> lines;
    for (int i = 0; i < 40000; ++i) {
        emu.step(di);
        if (di.isLoad() && di.effAddr >= 0x10000000)
            lines.insert(di.effAddr & ~(Addr)63);
    }
    EXPECT_EQ(lines.size(), 256u); // a single cycle visits every node
}

TEST(Kernels, StreamIsSequential)
{
    StreamParams p;
    p.elems = 1 << 12;
    isa::Program prog = streamProgram("t", p);
    emu::Emulator emu(prog);
    trace::DynInst di;
    Addr last = 0;
    int ascending = 0, loads = 0;
    for (int i = 0; i < 20000; ++i) {
        emu.step(di);
        if (di.op == isa::Opcode::Fld &&
            di.effAddr < 0x4000000 + (1 << 12) * 8) {
            ++loads;
            ascending += di.effAddr > last;
            last = di.effAddr;
        }
    }
    EXPECT_GT((double)ascending / loads, 0.95);
}

TEST(Kernels, ComputeHasAlmostNoMemoryTraffic)
{
    ComputeParams p;
    isa::Program prog = computeProgram("t", p);
    emu::Emulator emu(prog);
    trace::DynInst di;
    uint64_t mem = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        emu.step(di);
        ++total;
        mem += di.isMem();
    }
    EXPECT_LT((double)mem / total, 0.05);
}

TEST(Kernels, StateMachineVisitsManyStates)
{
    StateMachineParams p;
    p.states = 64;
    isa::Program prog = stateMachineProgram("t", p);
    emu::Emulator emu(prog);
    trace::DynInst di;
    // States live in r30 loads from the transition table.
    std::set<Addr> tableAddrs;
    for (int i = 0; i < 40000; ++i) {
        emu.step(di);
        if (di.isLoad() && di.effAddr >= 0x100000 &&
            di.effAddr < 0x100000 + 64 * 16 * 8) {
            tableAddrs.insert(di.effAddr);
        }
    }
    EXPECT_GT(tableAddrs.size(), 100u); // a lively random walk
}

// Placement on the paper's two axes, measured on the base machine.
// These run real simulations and are the slowest tests in the suite.
struct PlacementCase
{
    const char *name;
    bool hardBp;
    bool memIntensive;
};

// Without a printer gtest lists each case with a byte dump of the
// struct, so the name pointer, which moves with every run, and the
// uninitialised padding would end up in the test's name.
void
PrintTo(const PlacementCase &c, std::ostream *os)
{
    *os << c.name;
}

class SuitePlacement : public ::testing::TestWithParam<PlacementCase>
{
};

TEST_P(SuitePlacement, LandsInItsQuadrant)
{
    const PlacementCase &c = GetParam();
    Workload w = makeWorkload(c.name);
    EXPECT_EQ(w.expectHardBp, c.hardBp);
    sim::RunResult r = sim::simulate(
        sim::makeConfig(sim::Machine::Base), w.program, 30000, 120000);
    if (c.hardBp)
        EXPECT_GT(r.branchMpki, 3.0) << c.name;
    else
        EXPECT_LT(r.branchMpki, 3.0) << c.name;
    if (c.memIntensive)
        EXPECT_GT(r.llcMpki, 1.0) << c.name;
    else
        EXPECT_LT(r.llcMpki, 1.0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Representatives, SuitePlacement,
    ::testing::Values(PlacementCase{"sjeng_like", true, false},
                      PlacementCase{"astar_like", true, false},
                      PlacementCase{"mcf_like", true, true},
                      PlacementCase{"hmmer_like", false, false},
                      PlacementCase{"libquantum_like", false, false}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace pubs::wl
