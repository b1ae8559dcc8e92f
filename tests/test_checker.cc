/**
 * @file
 * Tests for the verification subsystem: the lockstep commit checker
 * (sim/checker.hh), the structural invariant auditor (cpu/audit.hh),
 * CoreParams::validate(), and the CheckPolicy plumbing.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hh"
#include "cpu/audit.hh"
#include "cpu/pipeline.hh"
#include "cpu/rename.hh"
#include "emu/emulator.hh"
#include "iq/age_matrix.hh"
#include "iq/random_queue.hh"
#include "isa/assembler.hh"
#include "sim/checker.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

isa::Program
loopProgram()
{
    return isa::assemble(R"(
        li r1, 0
        li r2, 50
        li r3, 0
    loop:
        addi r1, r1, 1
        add r3, r3, r1
        blt r1, r2, loop
        halt
    )");
}

// ---------------------------------------------------------------------
// CommitChecker
// ---------------------------------------------------------------------

TEST(CommitChecker, CleanRunHasNoDivergence)
{
    isa::Program prog = loopProgram();
    emu::Emulator emu(prog);
    sim::CommitChecker checker(prog);

    trace::DynInst di;
    while (emu.step(di))
        EXPECT_EQ(checker.check(di, 0), "");
    EXPECT_GT(checker.commitsChecked(), 0u);
    EXPECT_EQ(checker.divergences(), 0u);
}

TEST(CommitChecker, DetectsCorruptedNextPc)
{
    isa::Program prog = loopProgram();
    emu::Emulator emu(prog);
    sim::CommitChecker checker(prog);

    trace::DynInst di;
    uint64_t n = 0;
    bool caught = false;
    while (emu.step(di)) {
        if (++n == 10)
            di.nextPc += instBytes; // simulated wrong-stream commit
        std::string diag = checker.check(di, n);
        if (n == 10) {
            caught = true;
            EXPECT_NE(diag.find("divergence"), std::string::npos);
            EXPECT_NE(diag.find("next-pc"), std::string::npos);
            // The diagnostic carries the recent commit history.
            EXPECT_NE(diag.find("committed instructions"),
                      std::string::npos);
            break;
        }
        EXPECT_EQ(diag, "");
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(checker.divergences(), 1u);
}

TEST(CommitChecker, DetectsCorruptedDstValue)
{
    isa::Program prog = loopProgram();
    emu::Emulator emu(prog);
    sim::CommitChecker checker(prog);

    trace::DynInst di;
    uint64_t n = 0;
    while (emu.step(di)) {
        ++n;
        if (di.hasDstValue && n > 5) {
            di.dstValue ^= 0x80; // flip a result bit
            std::string diag = checker.check(di, n);
            EXPECT_NE(diag.find("dst value"), std::string::npos);
            return;
        }
        EXPECT_EQ(checker.check(di, n), "");
    }
    FAIL() << "program produced no destination values";
}

TEST(CommitChecker, DetectsCommitPastHalt)
{
    isa::Program prog = loopProgram();
    emu::Emulator emu(prog);
    sim::CommitChecker checker(prog);

    trace::DynInst di, last{};
    while (emu.step(di)) {
        EXPECT_EQ(checker.check(di, 0), "");
        last = di;
    }
    // The pipeline claims to commit one more instruction than the
    // program contains.
    std::string diag = checker.check(last, 0);
    EXPECT_NE(diag.find("already halted"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pipeline integration: checker + auditor on live simulations
// ---------------------------------------------------------------------

/** An emulator that corrupts the Nth instruction it hands out. */
class CorruptingSource : public emu::Emulator
{
  public:
    CorruptingSource(const isa::Program &program, uint64_t corruptAt)
        : emu::Emulator(program), corruptAt_(corruptAt)
    {}

    bool
    next(trace::DynInst &out) override
    {
        if (!step(out))
            return false;
        if (++count_ == corruptAt_ && out.hasDstValue)
            out.dstValue += 1;
        return true;
    }

  private:
    uint64_t corruptAt_;
    uint64_t count_ = 0;
};

TEST(PipelineChecker, CleanWorkloadPassesLockstep)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    params.checkPolicy = CheckPolicy::Throw;
    params.auditPolicy = CheckPolicy::Throw;
    params.auditInterval = 256;

    emu::Emulator emu(w.program);
    cpu::Pipeline pipe(params, emu);
    EXPECT_NO_THROW(pipe.run(30000));
    EXPECT_GT(pipe.stats().checkerCommits, 0u);
    EXPECT_EQ(pipe.stats().checkerDivergences, 0u);
    EXPECT_GT(pipe.stats().auditsRun, 0u);
    EXPECT_EQ(pipe.stats().auditViolations, 0u);
    ASSERT_NE(pipe.checker(), nullptr);
    EXPECT_EQ(pipe.checker()->divergences(), 0u);
}

TEST(PipelineChecker, CorruptedStreamThrowsCheckError)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Base);
    params.checkPolicy = CheckPolicy::Throw;

    CorruptingSource source(w.program, 2000);
    cpu::Pipeline pipe(params, source);
    EXPECT_THROW(pipe.run(30000), CheckError);
}

TEST(PipelineChecker, WarnPolicyCountsButContinues)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Base);
    params.checkPolicy = CheckPolicy::Warn;

    CorruptingSource source(w.program, 2000);
    cpu::Pipeline pipe(params, source);
    EXPECT_NO_THROW(pipe.run(30000));
    EXPECT_GE(pipe.stats().checkerDivergences, 1u);
}

// ---------------------------------------------------------------------
// Structural auditor on seeded corruption
// ---------------------------------------------------------------------

TEST(Auditor, CleanRenameUnitPasses)
{
    cpu::RenameUnit rename(64, 64);
    cpu::AuditReport report;
    cpu::Auditor::checkRenameBijection(rename, isa::RegClass::Int, {},
                                       report);
    cpu::Auditor::checkRenameBijection(rename, isa::RegClass::Fp, {},
                                       report);
    EXPECT_TRUE(report.ok()) << report.format("clean rename");
}

TEST(Auditor, PendingFreeCompletesTheBijection)
{
    cpu::RenameUnit rename(64, 64);
    PhysRegId prev = invalidPhysReg;
    rename.renameDst(isa::RegClass::Int, 3, prev);

    // Without the pending-free set the previous mapping looks leaked.
    cpu::AuditReport broken;
    cpu::Auditor::checkRenameBijection(rename, isa::RegClass::Int, {},
                                       broken);
    EXPECT_FALSE(broken.ok());

    cpu::AuditReport fixed;
    cpu::Auditor::checkRenameBijection(rename, isa::RegClass::Int, {prev},
                                       fixed);
    EXPECT_TRUE(fixed.ok()) << fixed.format("with pending free");
}

TEST(Auditor, DetectsDoubleFree)
{
    cpu::RenameUnit rename(64, 64);
    // Freeing a register that is still mapped puts it in two places.
    rename.freeReg(isa::RegClass::Int, rename.mapOf(isa::RegClass::Int, 0));
    cpu::AuditReport report;
    cpu::Auditor::checkRenameBijection(rename, isa::RegClass::Int, {},
                                       report);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.format("double free").find("double-held"),
              std::string::npos);
}

TEST(Auditor, IqPartitionAccountingClean)
{
    iq::RandomQueue queue(8, 2);
    queue.dispatch(10, 0, true);
    queue.dispatch(11, 1, false);
    queue.dispatch(12, 2, false);
    cpu::AuditReport report;
    cpu::Auditor::checkIqPartition(queue, report);
    EXPECT_TRUE(report.ok()) << report.format("clean IQ");
    queue.remove(11);
    cpu::AuditReport after;
    cpu::Auditor::checkIqPartition(queue, after);
    EXPECT_TRUE(after.ok()) << after.format("after remove");
}

TEST(Auditor, AgeMatrixTracksQueue)
{
    iq::RandomQueue queue(8, 0);
    iq::AgeMatrix matrix(8);
    auto place = [&](uint32_t id, SeqNum seq) {
        queue.dispatch(id, seq, false);
        const auto &slots = queue.prioritySlots();
        for (unsigned s = 0; s < slots.size(); ++s) {
            if (slots[s].valid && slots[s].clientId == id) {
                matrix.dispatch(s);
                break;
            }
        }
    };
    place(1, 100);
    place(2, 101);
    place(3, 102);
    cpu::AuditReport report;
    cpu::Auditor::checkAgeMatrix(matrix, queue, report);
    EXPECT_TRUE(report.ok()) << report.format("clean age matrix");

    // Corrupt: clear a matrix valid bit while the slot stays occupied.
    const auto &slots = queue.prioritySlots();
    for (unsigned s = 0; s < slots.size(); ++s) {
        if (slots[s].valid) {
            matrix.remove(s);
            break;
        }
    }
    cpu::AuditReport broken;
    cpu::Auditor::checkAgeMatrix(matrix, queue, broken);
    EXPECT_FALSE(broken.ok());
}

// ---------------------------------------------------------------------
// CoreParams::validate
// ---------------------------------------------------------------------

TEST(CoreParamsValidate, DefaultsAreValid)
{
    EXPECT_NO_THROW(cpu::CoreParams{}.validate());
    for (auto machine : {sim::Machine::Base, sim::Machine::Pubs,
                         sim::Machine::Age, sim::Machine::PubsAge}) {
        for (auto size : {cpu::SizeClass::Small, cpu::SizeClass::Medium,
                          cpu::SizeClass::Large, cpu::SizeClass::Huge}) {
            EXPECT_NO_THROW(sim::makeConfig(machine, size).validate());
        }
    }
}

TEST(CoreParamsValidate, RejectsBadCombinations)
{
    cpu::CoreParams p;

    p = cpu::CoreParams{};
    p.fetchWidth = 0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = cpu::CoreParams{};
    p.intPhysRegs = 8; // fewer than the architectural registers
    EXPECT_THROW(p.validate(), ConfigError);

    p = sim::makeConfig(sim::Machine::Pubs);
    p.iqKind = iq::IqKind::Circular;
    EXPECT_THROW(p.validate(), ConfigError);

    p = sim::makeConfig(sim::Machine::Pubs);
    p.pubs.priorityEntries = p.iqEntries;
    EXPECT_THROW(p.validate(), ConfigError);

    p = cpu::CoreParams{};
    p.idealPrioritySelect = true; // without usePubs
    EXPECT_THROW(p.validate(), ConfigError);

    p = cpu::CoreParams{};
    p.btbSets = 100; // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);

    p = cpu::CoreParams{};
    p.memory.l1d.lineBytes = 48; // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);

    p = sim::makeConfig(sim::Machine::Age);
    p.distributedIq = true; // age matrix + distributed IQ
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(CoreParamsValidate, CollectsAllProblemsAtOnce)
{
    cpu::CoreParams p;
    p.fetchWidth = 0;
    p.robEntries = 0;
    p.btbSets = 0;
    std::vector<std::string> errors = p.validationErrors();
    EXPECT_GE(errors.size(), 3u);
    try {
        p.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &error) {
        EXPECT_EQ(error.kind(), SimError::Kind::Config);
        // The message enumerates every problem.
        EXPECT_NE(std::string(error.what()).find("robEntries"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// CheckPolicy plumbing
// ---------------------------------------------------------------------

TEST(CheckPolicy, ParseAndName)
{
    CheckPolicy policy;
    ASSERT_TRUE(parseCheckPolicy("off", policy));
    EXPECT_EQ(policy, CheckPolicy::Off);
    ASSERT_TRUE(parseCheckPolicy("warn", policy));
    EXPECT_EQ(policy, CheckPolicy::Warn);
    ASSERT_TRUE(parseCheckPolicy("throw", policy));
    EXPECT_EQ(policy, CheckPolicy::Throw);
    ASSERT_TRUE(parseCheckPolicy("abort", policy));
    EXPECT_EQ(policy, CheckPolicy::Abort);
    EXPECT_FALSE(parseCheckPolicy("bogus", policy));

    EXPECT_STREQ(checkPolicyName(CheckPolicy::Warn), "warn");
    EXPECT_STREQ(checkPolicyName(CheckPolicy::Throw), "throw");
}

TEST(CheckPolicy, EnvOverride)
{
    ::unsetenv("PUBS_CHECK");
    EXPECT_EQ(checkPolicyFromEnv(CheckPolicy::Warn), CheckPolicy::Warn);
    ::setenv("PUBS_CHECK", "throw", 1);
    EXPECT_EQ(checkPolicyFromEnv(CheckPolicy::Off), CheckPolicy::Throw);
    ::setenv("PUBS_CHECK", "nonsense", 1);
    EXPECT_EQ(checkPolicyFromEnv(CheckPolicy::Warn), CheckPolicy::Warn);
    ::unsetenv("PUBS_CHECK");
}

TEST(CheckPolicy, ReportViolationRespectsPolicy)
{
    EXPECT_NO_THROW(
        reportViolation(CheckPolicy::Off, SimError::Kind::Check, "x"));
    EXPECT_THROW(
        reportViolation(CheckPolicy::Throw, SimError::Kind::Check, "x"),
        CheckError);
    EXPECT_THROW(
        reportViolation(CheckPolicy::Throw, SimError::Kind::Audit, "x"),
        AuditError);
}

} // namespace
} // namespace pubs
