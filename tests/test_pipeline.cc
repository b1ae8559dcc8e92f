/**
 * @file
 * Pipeline integration tests: end-to-end timing behaviour of the
 * out-of-order core, misprediction/wrong-path/squash correctness, PUBS
 * dispatch, the mode switch, and cross-configuration sanity.
 */

#include <gtest/gtest.h>

#include "common/error.hh"

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

/** Run @p source through a pipeline until drained; return the stats. */
PipelineStats
runToDrain(const std::string &source, const CoreParams &params)
{
    isa::Program prog = isa::assemble(source);
    emu::Emulator emu(prog);
    Pipeline pipe(params, emu);
    pipe.run(UINT64_MAX / 2);
    EXPECT_TRUE(pipe.drained());
    return pipe.stats();
}

/** Functional instruction count of @p source. */
uint64_t
functionalCount(const std::string &source)
{
    isa::Program prog = isa::assemble(source);
    emu::Emulator emu(prog);
    trace::DynInst di;
    uint64_t n = 0;
    while (emu.step(di))
        ++n;
    return n;
}

TEST(Pipeline, StraightLineCommitsEverything)
{
    // Loop a straight-line body so the I-cache warms up.
    std::string src = "li r9, 0\nli r10, 200\nloop:\n";
    for (int i = 2; i <= 20; ++i)
        src += "addi r" + std::to_string(i % 8 + 1) + ", r1, " +
               std::to_string(i) + "\n";
    src += "addi r9, r9, 1\nblt r9, r10, loop\nhalt\n";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_EQ(stats.committed, functionalCount(src));
    EXPECT_GT(stats.ipc(), 0.5);
}

TEST(Pipeline, DependentChainBoundsIpc)
{
    // A pure serial dependence chain can never exceed IPC 1.
    std::string src = "li r1, 0\n";
    for (int i = 0; i < 64; ++i)
        src += "addi r1, r1, 1\n";
    src += "halt\n";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_LE(stats.ipc(), 1.1);
    EXPECT_EQ(stats.committed, 66u);
}

TEST(Pipeline, IndependentOpsExploitWidth)
{
    // Independent single-cycle ops: should clearly beat IPC 1 (bounded
    // by the 2 iALUs of Table I). Looped so the I-cache warms up.
    std::string src = "li r9, 0\nli r10, 300\nloop:\n";
    for (int i = 0; i < 16; ++i)
        src += "li r" + std::to_string(i % 8 + 1) + ", " +
               std::to_string(i) + "\n";
    src += "addi r9, r9, 1\nblt r9, r10, loop\nhalt\n";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_GT(stats.ipc(), 1.4);
}

TEST(Pipeline, MulAndDivLatencies)
{
    // 8 dependent divides (20 cycles each, unpipelined) dominate.
    std::string src = "li r1, 1000000\nli r2, 3\n";
    for (int i = 0; i < 8; ++i)
        src += "div r1, r1, r2\n";
    src += "halt\n";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_GT(stats.cycles, 8u * 20u);
}

TEST(Pipeline, CommitMatchesFunctionalExecution)
{
    // Branchy program: every functional instruction commits exactly
    // once despite mispredictions, wrong-path fetch, and squashes.
    std::string src = R"(
        li r1, 0
        li r2, 200
        li r3, 0x2000
        li r5, 2
    loop:
        addi r1, r1, 1
        st r1, r3, 0
        ld r4, r3, 0
        rem r6, r4, r5
        beq r6, r0, even
        addi r7, r7, 1
        j next
    even:
        addi r8, r8, 1
    next:
        blt r1, r2, loop
        halt
    )";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_EQ(stats.committed, functionalCount(src));
    EXPECT_GT(stats.condBranches, 300u);
}

TEST(Pipeline, WrongPathInstructionsAreFetchedAndSquashed)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Base), emu);
    pipe.run(50000);
    const PipelineStats &stats = pipe.stats();
    EXPECT_GT(stats.condMispredicts, 100u);
    EXPECT_GT(stats.wrongPathFetched, stats.condMispredicts);
    // Everything fetched beyond a mispredicted branch must be squashed.
    EXPECT_GT(stats.squashed, 0u);
    EXPECT_GE(stats.squashed, stats.wrongPathFetched -
                                  stats.condMispredicts); // none commit
}

TEST(Pipeline, MisspecPenaltyIncludesFrontend)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    CoreParams params = makeConfig(Machine::Base);
    Pipeline pipe(params, emu);
    pipe.run(50000);
    // Penalty >= front-end depth + 1 execute cycle, by construction.
    EXPECT_GT(pipe.stats().avgMisspecPenalty(),
              (double)params.frontendDepth + 1.0);
}

TEST(Pipeline, PubsReducesMisspecPenaltyOnBranchyCode)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::RunResult base =
        sim::simulate(makeConfig(Machine::Base), w.program, 50000, 200000);
    sim::RunResult pubs =
        sim::simulate(makeConfig(Machine::Pubs), w.program, 50000, 200000);
    EXPECT_LT(pubs.pipeline.avgMisspecPenalty(),
              base.pipeline.avgMisspecPenalty());
    EXPECT_GT(pubs.speedupOver(base), 1.05);
}

TEST(Pipeline, PubsUsesPriorityEntries)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Pubs), emu);
    pipe.run(50000);
    EXPECT_GT(pipe.stats().priorityDispatches, 1000u);
    EXPECT_GT(pipe.stats().normalDispatches,
              pipe.stats().priorityDispatches);
}

TEST(Pipeline, ModeSwitchDisablesPubsOnMemoryBoundCode)
{
    wl::Workload w = wl::makeWorkload("mcf_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Pubs), emu);
    pipe.run(300000);
    ASSERT_NE(pipe.modeSwitch(), nullptr);
    EXPECT_LT(pipe.modeSwitch()->enabledFraction(), 0.2);
}

TEST(Pipeline, DeterministicAcrossIdenticalRuns)
{
    wl::Workload w = wl::makeWorkload("gobmk_like");
    auto runOnce = [&w]() {
        emu::Emulator emu(w.program);
        Pipeline pipe(makeConfig(Machine::Pubs), emu);
        pipe.run(60000);
        return pipe.stats().cycles;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(Pipeline, SeedChangesRandomQueueTiming)
{
    wl::Workload w = wl::makeWorkload("gobmk_like");
    auto runWithSeed = [&w](uint64_t seed) {
        CoreParams params = makeConfig(Machine::Base);
        params.seed = seed;
        emu::Emulator emu(w.program);
        Pipeline pipe(params, emu);
        pipe.run(60000);
        return pipe.stats().cycles;
    };
    // Different random-queue placement: almost surely different cycles.
    EXPECT_NE(runWithSeed(1), runWithSeed(99));
}

TEST(Pipeline, AgeMatrixImprovesRandomQueueIpc)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::RunResult base =
        sim::simulate(makeConfig(Machine::Base), w.program, 50000, 200000);
    sim::RunResult age =
        sim::simulate(makeConfig(Machine::Age), w.program, 50000, 200000);
    EXPECT_GT(age.pipeline.ipc(), base.pipeline.ipc());
}

TEST(Pipeline, ShiftingQueueBeatsRandomQueue)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    CoreParams shifting = makeConfig(Machine::Base);
    shifting.iqKind = iq::IqKind::Shifting;
    sim::RunResult base =
        sim::simulate(makeConfig(Machine::Base), w.program, 50000, 150000);
    sim::RunResult shift =
        sim::simulate(shifting, w.program, 50000, 150000);
    // age order should not lose
    EXPECT_GT(shift.pipeline.ipc(), base.pipeline.ipc() * 0.98);
}

TEST(Pipeline, StoreLoadForwardingWorks)
{
    // A load immediately after a store to the same address must not
    // wait for a full cache round trip.
    std::string src = R"(
        li r1, 0x2000
        li r2, 7
        st r2, r1, 0
        ld r3, r1, 0
        addi r3, r3, 1
        halt
    )";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_EQ(stats.committed, 6u);
    // Cold I-cache costs ~312 cycles; forwarding must not add another
    // DRAM round trip on top of it.
    EXPECT_LT(stats.cycles, 500u);
}

TEST(Pipeline, IcacheMissStallsFetchOnce)
{
    std::string src = "nop\nhalt\n";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    // Cold I-cache: the first fetch goes to DRAM (300+ cycles).
    EXPECT_GT(stats.cycles, 300u);
}

TEST(Pipeline, RunReturnsCommittedDelta)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Base), emu);
    EXPECT_EQ(pipe.run(10000), 10000u);
    EXPECT_EQ(pipe.run(5000), 5000u);
    EXPECT_EQ(pipe.stats().committed, 15000u);
}

TEST(Pipeline, ResetStatsKeepsTablesWarm)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Base), emu);
    pipe.run(20000);
    pipe.resetStats();
    EXPECT_EQ(pipe.stats().committed, 0u);
    pipe.run(20000);
    // Warm predictor: essentially no mispredictions on easy code.
    EXPECT_LT(pipe.stats().branchMpki(), 1.0);
}

TEST(Pipeline, FillStatsExportsKeyMetrics)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    Pipeline pipe(makeConfig(Machine::Pubs), emu);
    pipe.run(20000);
    StatGroup group("core");
    pipe.fillStats(group);
    EXPECT_TRUE(group.has("ipc"));
    EXPECT_TRUE(group.has("branch_mpki"));
    EXPECT_TRUE(group.has("avg_misspec_penalty"));
    EXPECT_TRUE(group.has("unconfident_branch_rate"));
    EXPECT_TRUE(group.has("pubs_enabled_fraction"));
    EXPECT_TRUE(group.has("p90_misspec_penalty"));
    EXPECT_TRUE(group.has("avg_iq_occupancy"));
    EXPECT_GT(group.get("ipc"), 0.0);
    EXPECT_GE(group.get("p90_misspec_penalty"),
              group.get("p50_misspec_penalty"));
    EXPECT_GT(group.get("avg_iq_occupancy"), 0.0);
}

TEST(Pipeline, RejectsInvalidConfigurations)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    emu::Emulator emu(w.program);
    CoreParams bad = makeConfig(Machine::Pubs);
    bad.iqKind = iq::IqKind::Shifting; // PUBS needs the random queue
    EXPECT_THROW({ Pipeline pipe(bad, emu); }, ConfigError);
}

TEST(Pipeline, NonStallPolicyAvoidsPriorityStalls)
{
    wl::Workload w = wl::makeWorkload("astar_like");
    CoreParams stall = makeConfig(Machine::Pubs);
    CoreParams nonStall = makeConfig(Machine::Pubs);
    nonStall.pubs.stallPolicy = false;
    sim::RunResult a =
        sim::simulate(stall, w.program, 20000, 100000);
    sim::RunResult b =
        sim::simulate(nonStall, w.program, 20000, 100000);
    EXPECT_EQ(b.pipeline.priorityStallCycles, 0u);
    EXPECT_GT(a.pipeline.priorityStallCycles, 0u);
}

TEST(Pipeline, JalJrPairsPredictWellThroughRas)
{
    std::string src = R"(
        li r1, 0
        li r2, 300
    loop:
        jal r31, fn
        blt r1, r2, loop
        halt
    fn:
        addi r1, r1, 1
        jr r31
    )";
    PipelineStats stats = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_GT(stats.indirectJumps, 290u);
    // The RAS should make returns nearly perfectly predicted.
    EXPECT_LT(stats.indirectMispredicts, stats.indirectJumps / 10);
}

TEST(Pipeline, DistributedIqRunsAndCommitsCorrectly)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    for (bool usePubs : {false, true}) {
        CoreParams params =
            makeConfig(usePubs ? Machine::Pubs : Machine::Base);
        params.distributedIq = true;
        sim::RunResult r =
            sim::simulate(params, w.program, 20000, 80000);
        EXPECT_EQ(r.pipeline.committed, 80000u);
        EXPECT_GT(r.pipeline.ipc(), 0.3) << "usePubs=" << usePubs;
    }
}

TEST(Pipeline, DistributedPubsStillReducesPenalty)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    CoreParams base = makeConfig(Machine::Base);
    base.distributedIq = true;
    CoreParams pubsCfg = makeConfig(Machine::Pubs);
    pubsCfg.distributedIq = true;
    // Small per-queue partitions make the stall policy too blunt for a
    // distributed IQ; the non-stall policy is the sensible port.
    pubsCfg.pubs.stallPolicy = false;
    sim::RunResult b = sim::simulate(base, w.program, 30000, 150000);
    sim::RunResult p = sim::simulate(pubsCfg, w.program, 30000, 150000);
    EXPECT_LT(p.pipeline.avgMisspecPenalty(),
              b.pipeline.avgMisspecPenalty());
}

TEST(Pipeline, IdealPrioritySelectBeatsBase)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    CoreParams ideal = makeConfig(Machine::Pubs);
    ideal.pubs.priorityEntries = 0; // no partition: pure select priority
    ideal.idealPrioritySelect = true;
    sim::RunResult base = sim::simulate(makeConfig(Machine::Base),
                                        w.program, 30000, 150000);
    sim::RunResult r = sim::simulate(ideal, w.program, 30000, 150000);
    EXPECT_GT(r.speedupOver(base), 1.03);
    EXPECT_LT(r.pipeline.avgMisspecPenalty(),
              base.pipeline.avgMisspecPenalty());
    // No reserved entries: the stall stat must stay zero.
    EXPECT_EQ(r.pipeline.priorityStallCycles, 0u);
}

TEST(Pipeline, IdealSelectRequiresSliceUnit)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    emu::Emulator emu(w.program);
    CoreParams bad = makeConfig(Machine::Base);
    bad.idealPrioritySelect = true; // without usePubs: invalid
    EXPECT_THROW({ Pipeline pipe(bad, emu); }, ConfigError);
}

TEST(Pipeline, DistributedIqRejectsAgeMatrix)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    emu::Emulator emu(w.program);
    CoreParams bad = makeConfig(Machine::Age);
    bad.distributedIq = true;
    EXPECT_THROW({ Pipeline pipe(bad, emu); }, ConfigError);
}

} // namespace
} // namespace pubs::cpu
