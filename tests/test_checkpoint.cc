/**
 * @file
 * Checkpoint-determinism test battery (the contract sim/checkpoint.hh
 * pins): fast-forward, save, restore — in the same process or a fresh
 * forked one — then run detailed simulation, and the result must be
 * byte-identical to the same run without the save/restore, for every
 * suite workload on every machine, with the lockstep checker watching.
 *
 * Also covers the container framing (bad magic, stale version,
 * truncation, payload corruption, wrong-program / wrong-machine
 * restores all throw CheckpointError) and the content-addressed
 * CheckpointStore (miss/hit, corrupt artifact degrades to a miss).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "emu/emulator.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/parallel_for.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

/**
 * Every deterministic field of a run, doubles rendered as hex floats so
 * comparison is bit-exact: two fingerprints match iff the fig8 row, the
 * stats JSON, and the checker verdict would all match.
 */
std::string
fingerprint(const sim::RunResult &r)
{
    char buf[512];
    const cpu::PipelineStats &p = r.pipeline;
    std::snprintf(
        buf, sizeof(buf),
        "i=%llu c=%llu ipc=%a bmpki=%a lmpki=%a pen=%a iqw=%a ubr=%a "
        "pef=%a psc=%llu | f=%llu cb=%llu cm=%llu ij=%llu im=%llu "
        "btb=%llu llc=%llu l1a=%llu l1m=%llu pd=%llu nd=%llu iq=%llu "
        "rob=%llu conf=%llu iss=%llu wpf=%llu sq=%llu chk=%llu div=%llu "
        "aud=%llu vio=%llu",
        (unsigned long long)r.instructions, (unsigned long long)r.cycles,
        r.ipc, r.branchMpki, r.llcMpki, r.avgMisspecPenalty, r.avgIqWait,
        r.unconfidentBranchRate, r.pubsEnabledFraction,
        (unsigned long long)r.priorityStallCycles,
        (unsigned long long)p.fetched, (unsigned long long)p.condBranches,
        (unsigned long long)p.condMispredicts,
        (unsigned long long)p.indirectJumps,
        (unsigned long long)p.indirectMispredicts,
        (unsigned long long)p.btbMissBubbles,
        (unsigned long long)p.llcMisses, (unsigned long long)p.l1dAccesses,
        (unsigned long long)p.l1dMisses,
        (unsigned long long)p.priorityDispatches,
        (unsigned long long)p.normalDispatches,
        (unsigned long long)p.iqFullStallCycles,
        (unsigned long long)p.robFullStallCycles,
        (unsigned long long)p.issueConflictCycles,
        (unsigned long long)p.issued,
        (unsigned long long)p.wrongPathFetched,
        (unsigned long long)p.squashed,
        (unsigned long long)p.checkerCommits,
        (unsigned long long)p.checkerDivergences,
        (unsigned long long)p.auditsRun,
        (unsigned long long)p.auditViolations);
    return buf;
}

cpu::CoreParams
checkedParams(sim::Machine machine)
{
    cpu::CoreParams params = sim::makeConfig(machine);
    params.checkPolicy = CheckPolicy::Throw;
    params.auditPolicy = CheckPolicy::Throw;
    params.heartbeatInterval = 0;
    return params;
}

/** Fast-forward @p skip then run; the reference an restore must hit. */
std::string
straightThrough(const isa::Program &program, const cpu::CoreParams &params,
                uint64_t skip, uint64_t warmup, uint64_t insts)
{
    sim::Simulator simulator(params, program);
    EXPECT_EQ(simulator.fastForward(skip), skip);
    return fingerprint(simulator.run(warmup, insts));
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** A small but structurally complete checkpoint to mutate in tests. */
std::string
makeCheckpointBytes(const std::string &workload = "sjeng_like",
                    sim::Machine machine = sim::Machine::Pubs,
                    uint64_t skip = 5000)
{
    wl::Workload w = wl::makeWorkload(workload);
    sim::Simulator simulator(checkedParams(machine), w.program);
    EXPECT_EQ(simulator.fastForward(skip), skip);
    return simulator.saveCheckpoint(sim::machineName(machine));
}

TEST(Checkpoint, RoundTripMatchesStraightThroughEveryWorkloadEveryMachine)
{
    const std::vector<std::string> names = wl::suiteNames();
    const sim::Machine machines[] = {sim::Machine::Base,
                                     sim::Machine::Pubs, sim::Machine::Age,
                                     sim::Machine::PubsAge};
    const uint64_t warmup = 1000, insts = 5000;

    struct Case
    {
        std::string workload;
        sim::Machine machine;
        uint64_t skip;
        std::string error;
    };
    std::vector<Case> cases;
    for (const std::string &name : names) {
        for (sim::Machine machine : machines) {
            // A deterministic pseudo-random cut point per case, so the
            // save lands at a different instruction count everywhere.
            Rng rng(0xc0de + cases.size() * 7919);
            cases.push_back({name, machine, 2000 + rng.below(15000), ""});
        }
    }

    sim::parallelFor(0, cases.size(), [&](size_t i) {
        Case &c = cases[i];
        try {
            wl::Workload w = wl::makeWorkload(c.workload);
            cpu::CoreParams params = checkedParams(c.machine);

            std::string straight = straightThrough(w.program, params,
                                                   c.skip, warmup, insts);

            // Save at the cut point in one simulator, restore into a
            // brand-new one, and run the same detailed windows.
            sim::Simulator saver(params, w.program);
            if (saver.fastForward(c.skip) != c.skip) {
                c.error = "short fast-forward";
                return;
            }
            std::string bytes =
                saver.saveCheckpoint(sim::machineName(c.machine));

            sim::Simulator restored(params, w.program);
            restored.restoreCheckpoint(bytes);
            if (restored.fastForwarded() != c.skip) {
                c.error = "restored skip count mismatch";
                return;
            }
            std::string viaCkpt =
                fingerprint(restored.run(warmup, insts));
            if (viaCkpt != straight) {
                c.error = "straight:  " + straight + "\nvia ckpt: " +
                          viaCkpt;
            }
        } catch (const SimError &error) {
            c.error = std::string(SimError::kindName(error.kind())) +
                      ": " + error.what();
        }
    });

    for (const Case &c : cases) {
        EXPECT_EQ(c.error, "")
            << c.workload << " on " << sim::machineName(c.machine)
            << " (skip " << c.skip << ")";
    }
}

TEST(Checkpoint, FreshProcessRestoreMatchesStraightThrough)
{
    const uint64_t skip = 12000, warmup = 2000, insts = 8000;
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = checkedParams(sim::Machine::Pubs);

    std::string path = tempPath("pubs_test_fresh_proc.pubsckpt");
    {
        sim::Simulator saver(params, w.program);
        ASSERT_EQ(saver.fastForward(skip), skip);
        saver.saveCheckpointFile(path, "pubs");
    }
    std::string straight =
        straightThrough(w.program, params, skip, warmup, insts);

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: restore in a process that never saw the save, run, and
        // ship the fingerprint back. Exit codes beat asserts here.
        close(fds[0]);
        std::string fp;
        try {
            wl::Workload cw = wl::makeWorkload("sjeng_like");
            sim::Simulator restored(checkedParams(sim::Machine::Pubs),
                                    cw.program);
            restored.restoreCheckpointFile(path);
            fp = fingerprint(restored.run(warmup, insts));
        } catch (const SimError &error) {
            fp = std::string("error: ") + error.what();
        }
        ssize_t ignored = write(fds[1], fp.data(), fp.size());
        (void)ignored;
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string fromChild;
    char buf[1024];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        fromChild.append(buf, (size_t)n);
    close(fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_EQ(fromChild, straight);
    std::remove(path.c_str());
}

TEST(Checkpoint, SaveAfterRestoreReproducesTheCheckpoint)
{
    // Restore must leave the simulator in a saveable (pristine) state,
    // and what it saves must describe the same cut point.
    std::string bytes = makeCheckpointBytes("hmmer_like");
    wl::Workload w = wl::makeWorkload("hmmer_like");
    sim::Simulator restored(checkedParams(sim::Machine::Pubs), w.program);
    restored.restoreCheckpoint(bytes);
    std::string again = restored.saveCheckpoint("pubs");
    EXPECT_EQ(sim::readCheckpointMeta(again).skipInsts,
              sim::readCheckpointMeta(bytes).skipInsts);
}

TEST(Checkpoint, RejectsBadMagic)
{
    std::string bytes = makeCheckpointBytes();
    bytes[0] ^= 0x40;
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(checkedParams(sim::Machine::Pubs), w.program);
    try {
        victim.restoreCheckpoint(bytes);
        FAIL() << "bad magic accepted";
    } catch (const CheckpointError &error) {
        EXPECT_NE(std::string(error.what()).find("magic"),
                  std::string::npos);
    }
}

TEST(Checkpoint, RejectsStaleFormatVersion)
{
    // A structurally valid container claiming a future format version:
    // both CRCs recomputed, so only the version check can reject it.
    std::string bytes = makeCheckpointBytes();
    const uint32_t future = 99;
    for (int i = 0; i < 4; ++i)
        bytes[8 + i] = (char)((future >> (8 * i)) & 0xff);
    uint32_t headerCrc = crc32(bytes.data(), 24);
    for (int i = 0; i < 4; ++i)
        bytes[24 + i] = (char)((headerCrc >> (8 * i)) & 0xff);

    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(checkedParams(sim::Machine::Pubs), w.program);
    try {
        victim.restoreCheckpoint(bytes);
        FAIL() << "future format version accepted";
    } catch (const CheckpointError &error) {
        EXPECT_NE(std::string(error.what()).find("version 99"),
                  std::string::npos);
    }
}

TEST(Checkpoint, RejectsTruncation)
{
    std::string bytes = makeCheckpointBytes();
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(checkedParams(sim::Machine::Pubs), w.program);
    for (size_t keep : {bytes.size() - 1, bytes.size() / 2, (size_t)27,
                        (size_t)0}) {
        SCOPED_TRACE("keep " + std::to_string(keep));
        std::string cut = bytes.substr(0, keep);
        EXPECT_THROW(victim.restoreCheckpoint(cut), CheckpointError);
    }
}

TEST(Checkpoint, RejectsPayloadBitFlip)
{
    std::string bytes = makeCheckpointBytes();
    bytes[bytes.size() / 2] ^= 0x01;
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(checkedParams(sim::Machine::Pubs), w.program);
    EXPECT_THROW(victim.restoreCheckpoint(bytes), CheckpointError);
}

TEST(Checkpoint, RejectsWrongProgram)
{
    std::string bytes = makeCheckpointBytes("sjeng_like");
    wl::Workload other = wl::makeWorkload("mcf_like");
    sim::Simulator victim(checkedParams(sim::Machine::Pubs),
                          other.program);
    try {
        victim.restoreCheckpoint(bytes);
        FAIL() << "wrong-program restore accepted";
    } catch (const CheckpointError &error) {
        EXPECT_NE(std::string(error.what()).find("different program"),
                  std::string::npos);
    }
}

TEST(Checkpoint, RejectsWrongMachineConfig)
{
    std::string bytes =
        makeCheckpointBytes("sjeng_like", sim::Machine::Pubs);
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(checkedParams(sim::Machine::Base), w.program);
    try {
        victim.restoreCheckpoint(bytes);
        FAIL() << "wrong-machine restore accepted";
    } catch (const CheckpointError &error) {
        EXPECT_NE(
            std::string(error.what()).find("machine configuration"),
            std::string::npos);
    }
}

TEST(Checkpoint, TraceReplayCannotCheckpoint)
{
    std::string path = tempPath("pubs_test_ckpt_trace.trc");
    wl::Workload w = wl::makeWorkload("sjeng_like");
    {
        trace::TraceWriter writer(path);
        emu::Emulator emu(w.program);
        trace::DynInst di;
        for (int i = 0; i < 100 && emu.step(di); ++i)
            writer.write(di);
        writer.close();
    }
    sim::Simulator simulator(
        checkedParams(sim::Machine::Base),
        std::make_unique<trace::TraceReader>(path));
    EXPECT_THROW((void)simulator.saveCheckpoint(), CheckpointError);
    std::string bytes = makeCheckpointBytes();
    EXPECT_THROW(simulator.restoreCheckpoint(bytes), CheckpointError);
    std::remove(path.c_str());
}

TEST(Checkpoint, SaveRequiresPristinePipeline)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator simulator(checkedParams(sim::Machine::Pubs),
                             w.program);
    simulator.run(500, 2000);
    EXPECT_THROW((void)simulator.saveCheckpoint(), CheckpointError);
}

TEST(Checkpoint, FailuresAreAttributedToTheirSimPhase)
{
    // The sweep's skip rows rely on this attribution to distinguish a
    // fast-forward fault from a measurement fault in skipped.csv.
    sim::clearFailedPhase();
    EXPECT_EQ(sim::lastFailedPhase(), sim::SimPhase::None);

    std::string path = tempPath("pubs_test_ckpt_phase.trc");
    wl::Workload w = wl::makeWorkload("sjeng_like");
    {
        trace::TraceWriter writer(path);
        emu::Emulator emu(w.program);
        trace::DynInst di;
        for (int i = 0; i < 50 && emu.step(di); ++i)
            writer.write(di);
        writer.close();
    }
    sim::Simulator simulator(
        checkedParams(sim::Machine::Base),
        std::make_unique<trace::TraceReader>(path));
    EXPECT_THROW((void)simulator.saveCheckpoint(), CheckpointError);
    EXPECT_EQ(sim::lastFailedPhase(), sim::SimPhase::CheckpointIo);
    EXPECT_STREQ(sim::simPhaseName(sim::lastFailedPhase()),
                 "checkpoint_io");

    sim::clearFailedPhase();
    EXPECT_EQ(sim::lastFailedPhase(), sim::SimPhase::None);
    EXPECT_STREQ(sim::simPhaseName(sim::SimPhase::FastForward),
                 "fastforward");
    std::remove(path.c_str());
}

TEST(CheckpointStore, MissThenHitRoundTrip)
{
    std::string dir = tempPath("pubs_test_ckpt_store");
    std::filesystem::remove_all(dir);

    sim::CheckpointStore store(dir);
    std::string bytes = makeCheckpointBytes();
    sim::CheckpointMeta meta = sim::readCheckpointMeta(bytes);

    std::string fetched;
    EXPECT_FALSE(store.contains(meta));
    EXPECT_FALSE(store.load(meta, fetched));
    store.save(meta, bytes);
    EXPECT_TRUE(store.contains(meta));
    ASSERT_TRUE(store.load(meta, fetched));
    EXPECT_EQ(fetched, bytes);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, KeyCoversSkipDistanceAndMachine)
{
    sim::CheckpointStore store("cache");
    sim::CheckpointMeta meta;
    meta.workload = "sjeng_like";
    meta.programCrc = 0x1234;
    meta.paramsFp = 0x5678;
    meta.skipInsts = 1000;
    std::string a = store.pathFor(meta);
    meta.skipInsts = 2000;
    std::string b = store.pathFor(meta);
    meta.paramsFp = 0x9abc;
    std::string c = store.pathFor(meta);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
}

TEST(CheckpointStore, TimingOnlyParamChangeSharesArtifacts)
{
    cpu::CoreParams base = checkedParams(sim::Machine::Pubs);

    // Timing-only knobs (window sizes, widths, latencies, PUBS dispatch
    // policy, the seed) must not move the fingerprint: a checkpoint
    // holds functionally-warmed state only, so a timing sweep over one
    // workload should hit the same cached fast-forward artifact.
    cpu::CoreParams timing = base;
    timing.robEntries *= 2;
    timing.iqEntries *= 2;
    timing.issueWidth = 2;
    timing.numIntAlu += 1;
    timing.memory.l1d.hitLatency += 1;
    timing.pubs.priorityEntries += 2;
    timing.pubs.stallPolicy = !timing.pubs.stallPolicy;
    timing.seed += 99;
    timing.validate();
    EXPECT_EQ(sim::paramsFingerprint(base),
              sim::paramsFingerprint(timing));

    // Any functional knob (cache geometry, predictor tables, PUBS
    // training configuration) must move it.
    cpu::CoreParams biggerL1 = base;
    biggerL1.memory.l1d.sizeBytes *= 2;
    EXPECT_NE(sim::paramsFingerprint(base),
              sim::paramsFingerprint(biggerL1));
    cpu::CoreParams widerCounters = base;
    widerCounters.pubs.confCounterBits += 1;
    EXPECT_NE(sim::paramsFingerprint(base),
              sim::paramsFingerprint(widerCounters));

    // Store behaviour: hit across the timing change, miss across the
    // functional one.
    std::string dir = tempPath("pubs_test_ckpt_store_functional");
    std::filesystem::remove_all(dir);
    sim::CheckpointStore store(dir);
    std::string bytes = makeCheckpointBytes();
    sim::CheckpointMeta meta = sim::readCheckpointMeta(bytes);
    ASSERT_EQ(meta.paramsFp, sim::paramsFingerprint(base));
    store.save(meta, bytes);

    sim::CheckpointMeta timingMeta = meta;
    timingMeta.paramsFp = sim::paramsFingerprint(timing);
    EXPECT_TRUE(store.contains(timingMeta));
    sim::CheckpointMeta funcMeta = meta;
    funcMeta.paramsFp = sim::paramsFingerprint(biggerL1);
    EXPECT_FALSE(store.contains(funcMeta));

    // And the identity check accepts a restore into the timing-variant
    // machine (the artifact is actually usable, not merely addressable).
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator victim(timing, w.program);
    EXPECT_NO_THROW(victim.restoreCheckpoint(bytes));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, CorruptArtifactIsAMissNotAnError)
{
    std::string dir = tempPath("pubs_test_ckpt_store_corrupt");
    std::filesystem::remove_all(dir);

    sim::CheckpointStore store(dir);
    std::string bytes = makeCheckpointBytes();
    sim::CheckpointMeta meta = sim::readCheckpointMeta(bytes);
    store.save(meta, bytes);

    // Stomp the cached artifact; the store must degrade to a miss so
    // the caller recomputes, never throw or return the corrupt bytes.
    {
        std::ofstream out(store.pathFor(meta),
                          std::ios::binary | std::ios::trunc);
        out << "not a checkpoint";
    }
    std::string fetched;
    EXPECT_FALSE(store.load(meta, fetched));
    EXPECT_TRUE(fetched.empty());
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pubs
