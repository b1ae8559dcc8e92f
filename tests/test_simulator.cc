/**
 * @file
 * Simulator-driver tests: config presets, Table IV size scaling and
 * run results.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::sim
{
namespace
{

TEST(Config, MachinePresets)
{
    cpu::CoreParams base = makeConfig(Machine::Base);
    EXPECT_FALSE(base.usePubs);
    EXPECT_FALSE(base.ageMatrix);

    cpu::CoreParams pubs = makeConfig(Machine::Pubs);
    EXPECT_TRUE(pubs.usePubs);
    EXPECT_FALSE(pubs.ageMatrix);

    cpu::CoreParams age = makeConfig(Machine::Age);
    EXPECT_FALSE(age.usePubs);
    EXPECT_TRUE(age.ageMatrix);

    cpu::CoreParams both = makeConfig(Machine::PubsAge);
    EXPECT_TRUE(both.usePubs);
    EXPECT_TRUE(both.ageMatrix);
}

TEST(Config, MachineNames)
{
    EXPECT_STREQ(machineName(Machine::Base), "base");
    EXPECT_STREQ(machineName(Machine::Pubs), "pubs");
    EXPECT_STREQ(machineName(Machine::Age), "age");
    EXPECT_STREQ(machineName(Machine::PubsAge), "pubs+age");
}

TEST(Config, TableIDefaults)
{
    cpu::CoreParams p = makeConfig(Machine::Base);
    EXPECT_EQ(p.fetchWidth, 4u);
    EXPECT_EQ(p.robEntries, 128u);
    EXPECT_EQ(p.iqEntries, 64u);
    EXPECT_EQ(p.lsqEntries, 64u);
    EXPECT_EQ(p.intPhysRegs, 128u);
    EXPECT_EQ(p.numIntAlu, 2u);
    EXPECT_EQ(p.numIntMulDiv, 1u);
    EXPECT_EQ(p.numLdSt, 2u);
    EXPECT_EQ(p.numFpu, 2u);
    EXPECT_EQ(p.recoveryPenalty, 10u);
    EXPECT_EQ(p.btbSets, 2048u);
    EXPECT_EQ(p.btbWays, 4u);
}

TEST(Config, TableIvScaling)
{
    auto small = cpu::CoreParams::scaled(cpu::SizeClass::Small);
    auto medium = cpu::CoreParams::scaled(cpu::SizeClass::Medium);
    auto large = cpu::CoreParams::scaled(cpu::SizeClass::Large);
    auto huge = cpu::CoreParams::scaled(cpu::SizeClass::Huge);
    EXPECT_LT(small.iqEntries, medium.iqEntries);
    EXPECT_LT(medium.iqEntries, large.iqEntries);
    EXPECT_LT(large.iqEntries, huge.iqEntries);
    EXPECT_LT(small.issueWidth, huge.issueWidth);
    EXPECT_EQ(medium.iqEntries, 64u); // medium == Table I
    // Non-scaled parameters stay at defaults.
    EXPECT_EQ(huge.recoveryPenalty, 10u);
    EXPECT_EQ(huge.memory.l2.sizeBytes, 2u * 1024 * 1024);
}

TEST(Config, SizeClassNames)
{
    EXPECT_STREQ(cpu::sizeClassName(cpu::SizeClass::Small), "small");
    EXPECT_STREQ(cpu::sizeClassName(cpu::SizeClass::Huge), "huge");
}

TEST(Config, DescribeMentionsKeyComponents)
{
    std::string text = makeConfig(Machine::Pubs).describe();
    EXPECT_NE(text.find("perceptron"), std::string::npos);
    EXPECT_NE(text.find("PUBS"), std::string::npos);
    EXPECT_NE(text.find("6 priority entries"), std::string::npos);
}

TEST(Simulator, RunResultFieldsArePopulated)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    RunResult r =
        simulate(makeConfig(Machine::Pubs), w.program, 20000, 80000);
    EXPECT_EQ(r.workload, "sjeng_like");
    EXPECT_EQ(r.pipeline.committed, 80000u);
    EXPECT_GT(r.pipeline.cycles, 0u);
    EXPECT_GT(r.pipeline.ipc(), 0.0);
    EXPECT_GT(r.pipeline.branchMpki(), 0.0);
    EXPECT_GT(r.pipeline.avgMisspecPenalty(), 0.0);
    EXPECT_GT(r.unconfidentBranchRate, 0.0);
}

TEST(Simulator, SpeedupOver)
{
    RunResult a, b;
    a.pipeline.committed = b.pipeline.committed = 1200;
    a.pipeline.cycles = 1000; // IPC 1.2
    b.pipeline.cycles = 1200; // IPC 1.0
    EXPECT_NEAR(a.speedupOver(b), 1.2, 1e-12);
    EXPECT_NEAR(b.speedupOver(a), 1.0 / 1.2, 1e-12);
}

TEST(Simulator, WarmupIsExcludedFromStats)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    RunResult warm =
        simulate(makeConfig(Machine::Base), w.program, 50000, 50000);
    EXPECT_EQ(warm.pipeline.committed, 50000u);
}

TEST(Simulator, StreamRunWritesFewOfItsGeneratedPages)
{
    // A default-budget bwaves_like run reads about 300 of the 4,104
    // pages its arrays span; the image writes only those.
    wl::Workload w = wl::makeWorkload("bwaves_like");
    simulate(makeConfig(Machine::Base), w.program, 200000, 1000000);
    size_t generated = 0;
    for (const isa::Program::Image::Run &run : w.program.image()->runs())
        generated += run.states.empty() ? 0 : run.pages.size();
    EXPECT_EQ(generated, 4104u);
    EXPECT_GT(w.program.image()->publishedPages(), 0u);
    EXPECT_LE(w.program.image()->publishedPages() * 10, generated);
}

TEST(Simulator, PubsAgeCombinationRuns)
{
    wl::Workload w = wl::makeWorkload("gobmk_like");
    RunResult r =
        simulate(makeConfig(Machine::PubsAge), w.program, 20000, 60000);
    EXPECT_GT(r.pipeline.ipc(), 0.0);
}

} // namespace
} // namespace pubs::sim
