/**
 * @file
 * Sweep-row codec, write-ahead journal, and resume tests: torn-tail
 * recovery, stale-journal rejection, kill -9 mid-sweep followed by
 * --resume producing byte-identical output, and proc-mode sweeps
 * matching thread-mode sweeps bit for bit.
 *
 * The end-to-end tests fork, so the suite is deliberately named outside
 * the TSan CI job's test regex.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/bench_util.hh"
#include "common/run_codec.hh"
#include "common/subprocess.hh"
#include "common/sweep_journal.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::bench
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** A realistic, fully populated row: an actual (tiny) simulation. */
SweepRow
simulatedRow()
{
    static SweepRow cached = [] {
        SweepRow row;
        wl::Workload w = wl::makeWorkload("sjeng_like");
        row.result = sim::simulate(sim::makeConfig(sim::Machine::Pubs),
                                   w.program, 1000, 8000);
        row.result.workload = w.name;
        row.result.machine = "pubs";
        return row;
    }();
    return cached;
}

/** Small mixed batch including one run the simulator rejects. */
SweepSpec
makeSpec()
{
    SweepSpec spec;
    spec.options.jobs = 1;
    spec.options.warmup = 1000;
    spec.options.insts = 8000;
    spec.verbose = false;
    for (const char *name : {"sjeng_like", "hmmer_like", "mcf_like"}) {
        wl::Workload w = wl::makeWorkload(name);
        spec.add(w, sim::makeConfig(sim::Machine::Base), "base");
        spec.add(std::move(w), sim::makeConfig(sim::Machine::Pubs),
                 "pubs");
    }
    // A config the simulator rejects: the skip row must journal and
    // resume like any other row.
    cpu::CoreParams bad = sim::makeConfig(sim::Machine::Pubs);
    bad.iqKind = iq::IqKind::Shifting;
    spec.add(wl::makeWorkload("hmmer_like"), bad, "bad");
    return spec;
}

/** Reset the process-wide sweep configuration this file mutates. */
void
cleanSweepConfig()
{
    ::unsetenv("PUBS_FAULT");
}

/** @p spec journaling to @p path, resuming from it if @p resume. */
SweepSpec
journaled(SweepSpec spec, const std::string &path, bool resume)
{
    spec.options.journal = path;
    spec.options.resume = resume;
    return spec;
}

// --- row codec -------------------------------------------------------

TEST(SweepResume, CodecRoundTripsARealRow)
{
    SweepRow row = simulatedRow();
    std::string payload = encodeSweepRow(row);
    EXPECT_EQ(payload, encodeSweepRow(row)) << "encoding must be pure";

    SweepRow decoded;
    std::string error;
    ASSERT_TRUE(decodeSweepRow(payload, decoded, &error)) << error;
    EXPECT_EQ(encodeSweepRow(decoded), payload)
        << "decode must invert encode bit-exactly";
    EXPECT_EQ(decoded.result.workload, row.result.workload);
    EXPECT_EQ(decoded.result.cycles, row.result.cycles);
    EXPECT_EQ(decoded.result.ipc, row.result.ipc);
    EXPECT_EQ(decoded.result.pipeline.committed,
              row.result.pipeline.committed);
    EXPECT_EQ(decoded.result.pipeline.iqWait.samples(),
              row.result.pipeline.iqWait.samples());
}

TEST(SweepResume, CodecRoundTripsASkipRow)
{
    SweepRow row;
    row.error = "checker divergence at seq 123";
    row.errorKind = "check";
    row.result.workload = "mcf_like";
    row.result.machine = "pubs";

    SweepRow decoded;
    ASSERT_TRUE(decodeSweepRow(encodeSweepRow(row), decoded));
    EXPECT_EQ(decoded.error, row.error);
    EXPECT_EQ(decoded.errorKind, row.errorKind);
    EXPECT_EQ(decoded.result.workload, "mcf_like");
}

TEST(SweepResume, CodecRejectsEveryTruncation)
{
    std::string payload = encodeSweepRow(simulatedRow());
    SweepRow decoded;
    for (size_t n = 0; n < payload.size(); n += 7) {
        SCOPED_TRACE("prefix " + std::to_string(n));
        EXPECT_FALSE(decodeSweepRow(payload.substr(0, n), decoded));
    }
    EXPECT_FALSE(decodeSweepRow(payload + "x", decoded))
        << "trailing bytes must be rejected";
    std::string wrongVersion = payload;
    wrongVersion[0] = (char)0x7f;
    EXPECT_FALSE(decodeSweepRow(wrongVersion, decoded));
}

// --- journal ---------------------------------------------------------

TEST(SweepResume, JournalRoundTrip)
{
    cleanSweepConfig();
    std::string path = tempPath("pubs_journal_rt.jnl");
    std::remove(path.c_str());
    std::string payload = encodeSweepRow(simulatedRow());

    {
        SweepJournal journal(path, 0xabcdef, 5, false);
        EXPECT_EQ(journal.loaded(), 0u);
        journal.record(0, payload);
        journal.record(3, "short payload");
        journal.record(4, "");
    }
    SweepJournal journal(path, 0xabcdef, 5, true);
    EXPECT_EQ(journal.loaded(), 3u);
    EXPECT_TRUE(journal.has(0));
    EXPECT_FALSE(journal.has(1));
    EXPECT_FALSE(journal.has(2));
    EXPECT_TRUE(journal.has(3));
    EXPECT_TRUE(journal.has(4));
    EXPECT_EQ(journal.payload(0), payload);
    EXPECT_EQ(journal.payload(3), "short payload");
    EXPECT_EQ(journal.payload(4), "");
}

TEST(SweepResume, JournalDiscardsTornTail)
{
    cleanSweepConfig();
    std::string path = tempPath("pubs_journal_torn.jnl");
    std::remove(path.c_str());
    {
        SweepJournal journal(path, 1, 4, false);
        journal.record(0, "first record");
        journal.record(1, "second record");
    }
    // A torn append: garbage after the last complete record.
    long intact = (long)std::filesystem::file_size(path);
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fwrite("GARBAGE", 1, 7, f);
        std::fclose(f);
    }
    {
        SweepJournal journal(path, 1, 4, true);
        EXPECT_EQ(journal.loaded(), 2u);
        EXPECT_EQ(journal.payload(1), "second record");
    }
    // The recovery truncated the tail, so the file is clean again.
    EXPECT_EQ((long)std::filesystem::file_size(path), intact);

    // A record cut short mid-payload only surrenders that record.
    ASSERT_EQ(::truncate(path.c_str(), intact - 3), 0);
    SweepJournal journal(path, 1, 4, true);
    EXPECT_EQ(journal.loaded(), 1u);
    EXPECT_TRUE(journal.has(0));
    EXPECT_FALSE(journal.has(1));
}

TEST(SweepResume, JournalRejectsBitFlippedRecord)
{
    cleanSweepConfig();
    std::string path = tempPath("pubs_journal_flip.jnl");
    std::remove(path.c_str());
    {
        SweepJournal journal(path, 1, 2, false);
        journal.record(0, "payload under crc protection");
    }
    // Flip one payload byte (past the 32-byte header and the 20-byte
    // record header): the CRC must reject the record.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 32 + 20 + 4, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);
    }
    SweepJournal journal(path, 1, 2, true);
    EXPECT_EQ(journal.loaded(), 0u);
}

TEST(SweepResume, JournalRejectsMismatchedSweep)
{
    cleanSweepConfig();
    std::string path = tempPath("pubs_journal_stale.jnl");
    std::remove(path.c_str());
    {
        SweepJournal journal(path, /*specKey=*/7, /*slots=*/3, false);
        journal.record(0, "from another sweep");
    }
    // Different spec key: a stale journal must never leak rows.
    {
        SweepJournal journal(path, 8, 3, true);
        EXPECT_EQ(journal.loaded(), 0u);
    }
    // Different slot count, same key: also stale.
    {
        SweepJournal journal(path, 7, 3, false);
        journal.record(0, "fresh");
    }
    {
        SweepJournal journal(path, 7, 4, true);
        EXPECT_EQ(journal.loaded(), 0u);
    }
    // Fresh mode ignores a perfectly valid journal by design.
    {
        SweepJournal journal(path, 7, 4, false);
        EXPECT_EQ(journal.loaded(), 0u);
    }
}

// --- end-to-end resume -----------------------------------------------

/**
 * Run @p fn in a forked child and wait for it. @return the child's wait
 * status.
 */
int
inChild(const std::function<void()> &fn)
{
    proc::Child child = proc::spawnChild([&](int) { fn(); });
    ::close(child.fd);
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/**
 * Fork a child that starts @p spec with journaling at @p path and a
 * PUBS_FAULT plan, and wait for it. @return the child's wait status.
 */
int
runInterruptedSweep(const SweepSpec &spec, const std::string &path,
                    const char *fault)
{
    return inChild([&] {
        ::setenv("PUBS_FAULT", fault, 1);
        runSweep(journaled(spec, path, false));
    });
}

TEST(SweepResume, KilledSweepResumesByteIdentical)
{
    cleanSweepConfig();
    SweepSpec spec = makeSpec();
    std::string reference = runSweep(spec).statsJson();

    std::string path = tempPath("pubs_journal_kill.jnl");
    std::remove(path.c_str());

    // The child SIGKILLs itself after the third journal commit — the
    // deterministic stand-in for an operator's kill -9 mid-sweep.
    int status = runInterruptedSweep(spec, path, "killafter:3");
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child should have died to the injected SIGKILL, got "
        << proc::describeStatus(status);

    SweepResult resumed = runSweep(journaled(spec, path, true));

    EXPECT_EQ(resumed.statsJson(), reference);
    EXPECT_EQ(resumed.failed(), 1u) << "only the bad-config skip row";
}

TEST(SweepResume, CrashyProcSweepResumesByteIdentical)
{
    cleanSweepConfig();
    SweepSpec spec = makeSpec();
    std::string reference = runSweep(spec).statsJson();

    std::string path = tempPath("pubs_journal_crashy.jnl");
    std::remove(path.c_str());

    // Proc-mode child under seeded crash injection *and* a mid-sweep
    // SIGKILL: the acceptance scenario. Retries are generous enough
    // that no task exhausts them at rate 0.3.
    SweepSpec procSpec = spec;
    procSpec.options.procs = 2;
    ::setenv("PUBS_PROC_RETRIES", "10", 1);
    ::setenv("PUBS_PROC_BACKOFF_MS", "1", 1);
    int status =
        runInterruptedSweep(procSpec, path, "crash:0.3:7,killafter:2");
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << proc::describeStatus(status);

    // Resume under the same crash plan, minus the kill.
    ::setenv("PUBS_FAULT", "crash:0.3:7", 1);
    SweepResult resumed = runSweep(journaled(procSpec, path, true));
    cleanSweepConfig();
    ::unsetenv("PUBS_PROC_RETRIES");
    ::unsetenv("PUBS_PROC_BACKOFF_MS");

    EXPECT_EQ(resumed.statsJson(), reference);
}

TEST(SweepResume, AnotherMachineUnderTheSameLabelIsNotServed)
{
    cleanSweepConfig();
    // A small PUBS sweep, and the blind model of Fig. 11 (no conf_tab)
    // under the same "pubs" label. describe() prints the same text for
    // both; only the machine key tells them apart.
    auto pubsSweep = [](bool useConfTab) {
        SweepSpec spec;
        spec.options.jobs = 1;
        spec.options.warmup = 1000;
        spec.options.insts = 8000;
        spec.verbose = false;
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.useConfTab = useConfTab;
        for (const char *name : {"sjeng_like", "hmmer_like"})
            spec.add(wl::makeWorkload(name), params, "pubs");
        return spec;
    };
    std::string path = tempPath("pubs_journal_relabel.jnl");
    std::remove(path.c_str());

    ASSERT_EQ(inChild([&] {
                  runSweep(journaled(pubsSweep(true), path, false));
              }),
              0);
    // The same sweep resumes from the journal...
    ASSERT_EQ(inChild([&] {
                  SweepResult same =
                      runSweep(journaled(pubsSweep(true), path, true));
                  ::_exit(same.farm.journalServed == 2 ? 0 : 1);
              }),
              0);
    // ...the blind one simulates every run.
    SweepResult blind = runSweep(journaled(pubsSweep(false), path, true));
    EXPECT_EQ(blind.farm.journalServed, 0u);
    EXPECT_EQ(blind.failed(), 0u);
    std::remove(path.c_str());
}

TEST(SweepResume, CheckOverrideFromTheEnvironmentIsKeyed)
{
    cleanSweepConfig();
    // PUBS_CHECK turns the checker on inside the Pipeline, so its rows
    // carry checker commits a run without it would not produce.
    SweepSpec spec;
    spec.options.jobs = 1;
    spec.options.warmup = 1000;
    spec.options.insts = 8000;
    spec.verbose = false;
    for (const char *name : {"sjeng_like", "hmmer_like"})
        spec.add(wl::makeWorkload(name), sim::makeConfig(sim::Machine::Pubs),
                 "pubs");
    std::string path = tempPath("pubs_journal_check.jnl");
    std::remove(path.c_str());

    ASSERT_EQ(inChild([&] {
                  ::setenv("PUBS_CHECK", "throw", 1);
                  runSweep(journaled(spec, path, false));
              }),
              0);
    // Under the same override the journal serves every run...
    ASSERT_EQ(inChild([&] {
                  ::setenv("PUBS_CHECK", "throw", 1);
                  SweepResult same = runSweep(journaled(spec, path, true));
                  ::_exit(same.farm.journalServed == 2 ? 0 : 1);
              }),
              0);
    // ...without it, none.
    SweepResult unchecked = runSweep(journaled(spec, path, true));
    EXPECT_EQ(unchecked.farm.journalServed, 0u);
    EXPECT_EQ(unchecked.failed(), 0u);
    EXPECT_EQ(unchecked.at(0).pipeline.checkerCommits, 0u);
    std::remove(path.c_str());
}

TEST(SweepResume, ProcModeMatchesThreadMode)
{
    cleanSweepConfig();
    SweepSpec threads = makeSpec();
    SweepSpec procs = makeSpec();
    procs.options.procs = 3;
    EXPECT_EQ(runSweep(procs).statsJson(), runSweep(threads).statsJson());
}

} // namespace
} // namespace pubs::bench
