/**
 * @file
 * Top-down CPI-stack tests: the CpiStack container itself (merge,
 * deltas, stat publication, formatting), closed-form component
 * assertions on hand-written kernels, the adds-up invariant across the
 * whole workload suite on every machine (straight and sampled, with the
 * structural auditor armed so its mid-cycle accounting is exercised),
 * and the per-branch attribution rows surfaced through RunResult.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/stats.hh"
#include "cpu/cpi_stack.hh"
#include "cpu/pipeline.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::cpu
{
namespace
{

using sim::Machine;
using sim::makeConfig;

TEST(CpiStack, ComponentNamesAreStable)
{
    EXPECT_STREQ(cpiComponentName(CpiComponent::Base), "base");
    EXPECT_STREQ(cpiComponentName(CpiComponent::MemDram), "mem_dram");
    EXPECT_STREQ(cpiComponentName(CpiComponent::PriorityStall),
                 "priority_stall");
    EXPECT_STREQ(cpiComponentName(CpiComponent::Execute), "execute");
    // Every component has a distinct, non-placeholder name.
    for (size_t i = 0; i < numCpiComponents; ++i) {
        std::string name = cpiComponentName((CpiComponent)i);
        EXPECT_NE(name, "?");
        for (size_t j = i + 1; j < numCpiComponents; ++j)
            EXPECT_NE(name, cpiComponentName((CpiComponent)j));
    }
}

TEST(CpiStack, AddTotalMergeDelta)
{
    CpiStack a;
    a.add(CpiComponent::Base, 10);
    a.add(CpiComponent::Frontend, 3);
    a.add(CpiComponent::Base); // default n = 1
    EXPECT_EQ(a[CpiComponent::Base], 11u);
    EXPECT_EQ(a.total(), 14u);

    CpiStack b;
    b.add(CpiComponent::Base, 4);
    b.add(CpiComponent::MemDram, 6);
    b.merge(a);
    EXPECT_EQ(b[CpiComponent::Base], 15u);
    EXPECT_EQ(b[CpiComponent::Frontend], 3u);
    EXPECT_EQ(b[CpiComponent::MemDram], 6u);
    EXPECT_EQ(b.total(), a.total() + 10u);

    CpiStack delta = b.deltaSince(a);
    EXPECT_EQ(delta[CpiComponent::Base], 4u);
    EXPECT_EQ(delta[CpiComponent::Frontend], 0u);
    EXPECT_EQ(delta[CpiComponent::MemDram], 6u);
    EXPECT_EQ(delta.total(), 10u);
}

TEST(CpiStack, FillPublishesCyclesAndCpi)
{
    CpiStack s;
    s.add(CpiComponent::Base, 75);
    s.add(CpiComponent::Execute, 25);

    StatGroup group("cpi_stack");
    s.fill(group, 50);
    EXPECT_EQ(group.get("total_cycles"), 100.0);
    EXPECT_EQ(group.get("base_cycles"), 75.0);
    EXPECT_EQ(group.get("execute_cycles"), 25.0);
    EXPECT_EQ(group.get("mem_l2_cycles"), 0.0);
    EXPECT_DOUBLE_EQ(group.get("cpi_base"), 1.5);
    EXPECT_DOUBLE_EQ(group.get("cpi_execute"), 0.5);

    // Zero committed instructions must not divide by zero.
    StatGroup empty("cpi_stack");
    s.fill(empty, 0);
    EXPECT_EQ(empty.get("cpi_base"), 0.0);
}

TEST(CpiStack, FormatListsEveryComponent)
{
    CpiStack s;
    s.add(CpiComponent::Base, 90);
    s.add(CpiComponent::MemDram, 10);
    std::string text = s.format(80);
    EXPECT_NE(text.find("100 cycles"), std::string::npos);
    EXPECT_NE(text.find("80 committed"), std::string::npos);
    for (size_t i = 0; i < numCpiComponents; ++i)
        EXPECT_NE(text.find(cpiComponentName((CpiComponent)i)),
                  std::string::npos)
            << cpiComponentName((CpiComponent)i);
    EXPECT_NE(text.find("90.0%"), std::string::npos);
}

/** Run @p source to drain with the auditor throwing; return stats. */
PipelineStats
runToDrain(const std::string &source, CoreParams params)
{
    params.auditPolicy = CheckPolicy::Throw;
    params.auditInterval = 64;
    isa::Program prog = isa::assemble(source);
    emu::Emulator emu(prog);
    Pipeline pipe(params, emu);
    pipe.run(UINT64_MAX / 2);
    EXPECT_TRUE(pipe.drained());
    return pipe.stats();
}

TEST(CpiStackClosedForm, StraightLineAluHasNoMemOrPriorityCycles)
{
    // Pure register ALU work: no loads, no stores, no PUBS — the memory,
    // LSQ, and priority components must be exactly zero, and every
    // elapsed cycle must be attributed.
    std::string src = "li r9, 0\nli r10, 200\nloop:\n";
    for (int i = 2; i <= 20; ++i)
        src += "addi r" + std::to_string(i % 8 + 1) + ", r1, " +
               std::to_string(i) + "\n";
    src += "addi r9, r9, 1\nblt r9, r10, loop\nhalt\n";

    PipelineStats s = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_EQ(s.cpi.total(), s.cycles);
    EXPECT_EQ(s.cpi[CpiComponent::MemL2], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::MemDram], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::LsqFull], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::PriorityStall], 0u);
    EXPECT_GT(s.cpi[CpiComponent::Base], 0u);
    // Useful-dispatch cycles can never exceed committed instructions.
    EXPECT_LE(s.cpi[CpiComponent::Base], s.committed);
}

TEST(CpiStackClosedForm, SerialChainIsNotMemoryOrBranchBound)
{
    // A pure serial dependence chain with no branches: the stack must
    // contain no branch-recovery and no memory cycles; the stall side
    // is execute/structure/frontend time.
    std::string src = "li r1, 0\n";
    for (int i = 0; i < 64; ++i)
        src += "addi r1, r1, 1\n";
    src += "halt\n";

    PipelineStats s = runToDrain(src, makeConfig(Machine::Base));
    EXPECT_EQ(s.cpi.total(), s.cycles);
    EXPECT_EQ(s.cpi[CpiComponent::BranchRecovery], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::MemL2], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::MemDram], 0u);
    EXPECT_EQ(s.cpi[CpiComponent::PriorityStall], 0u);
}

TEST(CpiStackClosedForm, RecoveryCyclesTrackMispredicts)
{
    // A data-dependent unpredictable branch: every squash suspends
    // fetch for the fixed Table I recovery penalty, so the recovery
    // component grows with the misprediction count and is bounded by
    // mispredicts * recoveryPenalty.
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = makeConfig(Machine::Base);
    params.auditPolicy = CheckPolicy::Throw;
    sim::RunResult r = sim::simulate(params, w.program, 5000, 20000);

    const PipelineStats &s = r.pipeline;
    uint64_t mispredicts = s.condMispredicts + s.indirectMispredicts;
    ASSERT_GT(mispredicts, 0u);
    EXPECT_GT(s.cpi[CpiComponent::BranchRecovery], 0u);
    EXPECT_LE(s.cpi[CpiComponent::BranchRecovery],
              mispredicts * (uint64_t)params.recoveryPenalty);
}

TEST(CpiStackClosedForm, PriorityStallOnlyOnPubsMachines)
{
    wl::Workload w = wl::makeWorkload("astar_like");
    cpu::CoreParams base = makeConfig(Machine::Base);
    cpu::CoreParams pubs = makeConfig(Machine::Pubs);
    base.auditPolicy = pubs.auditPolicy = CheckPolicy::Throw;

    sim::RunResult rb = sim::simulate(base, w.program, 5000, 20000);
    sim::RunResult rp = sim::simulate(pubs, w.program, 5000, 20000);

    EXPECT_EQ(rb.pipeline.cpi[CpiComponent::PriorityStall], 0u);
    // The stall policy's cost shows up as the dedicated component, and
    // never exceeds the raw blocked-cycle counter (a cycle that also
    // dispatched an earlier instruction is Base, not PriorityStall).
    EXPECT_LE(rp.pipeline.cpi[CpiComponent::PriorityStall],
              rp.pipeline.priorityStallCycles);
}

TEST(CpiStackInvariant, AddsUpAcrossSuiteOnEveryMachine)
{
    // The hard invariant: components partition the cycle count, on
    // every workload in the suite, base and PUBS machine alike, with
    // the structural auditor (which checks the same thing mid-run,
    // including mid-cycle after squashes) set to throw.
    for (const std::string &name : wl::suiteNames()) {
        wl::Workload w = wl::makeWorkload(name);
        for (Machine m : {Machine::Base, Machine::Pubs}) {
            cpu::CoreParams params = makeConfig(m);
            params.auditPolicy = CheckPolicy::Throw;
            params.auditInterval = 256;
            sim::RunResult r =
                sim::simulate(params, w.program, 2000, 8000);
            EXPECT_EQ(r.pipeline.cpi.total(), r.pipeline.cycles)
                << name << " on " << sim::machineName(m);
            EXPECT_GT(r.pipeline.cpi[CpiComponent::Base], 0u)
                << name << " on " << sim::machineName(m);
        }
    }
}

TEST(CpiStackInvariant, SampledRunsPoolWindowStacks)
{
    // A sampled run's stack is the pool of its windows' stacks, so the
    // invariant holds against the pooled cycle count.
    sim::SamplePlan plan;
    plan.windows = 3;
    plan.warmupInsts = 500;
    plan.measureInsts = 2000;
    plan.periodInsts = 6000;

    for (const std::string &name : {std::string("sjeng_like"),
                                    std::string("mcf_like")}) {
        wl::Workload w = wl::makeWorkload(name);
        for (Machine m : {Machine::Base, Machine::Pubs}) {
            cpu::CoreParams params = makeConfig(m);
            sim::RunResult r = sim::simulateSampled(params, w.program,
                                                    plan, nullptr,
                                                    sim::machineName(m));
            EXPECT_TRUE(r.sampled);
            EXPECT_EQ(r.pipeline.cpi.total(), r.pipeline.cycles)
                << name << " on " << sim::machineName(m);
        }
    }
}

TEST(BranchProfile, RowsAreInternallyConsistent)
{
    // With telemetry on, RunResult carries the per-branch table; each
    // row's confidence×outcome quadrant partitions its commits, its
    // mispredict count matches the wrong quadrants, and slice coverage
    // never exceeds the slice size.
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = makeConfig(Machine::Pubs);
    params.telemetry = true;
    sim::RunResult r = sim::simulate(params, w.program, 5000, 20000);

    ASSERT_FALSE(r.branchProfile.empty());
    ASSERT_LE(r.branchProfile.size(), sim::maxBranchProfileRows);
    uint64_t lastMispredicts = UINT64_MAX;
    for (const auto &[pc, row] : r.branchProfile) {
        EXPECT_GT(row.commits, 0u);
        EXPECT_EQ(row.confidentCorrect + row.confidentWrong +
                      row.unconfidentCorrect + row.unconfidentWrong,
                  row.commits);
        EXPECT_LE(row.mispredicts, row.commits);
        EXPECT_LE(row.sliceCovered, row.sliceInsts);
        // Rows arrive sorted by descending mispredict count.
        EXPECT_LE(row.mispredicts, lastMispredicts);
        lastMispredicts = row.mispredicts;
    }
}

TEST(BranchProfile, EmptyWithoutTelemetry)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = makeConfig(Machine::Pubs);
    sim::RunResult r = sim::simulate(params, w.program, 2000, 8000);
    EXPECT_TRUE(r.branchProfile.empty());
}

} // namespace
} // namespace pubs::cpu
