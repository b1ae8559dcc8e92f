/**
 * @file
 * The bytes of every host-side format, pinned: sweep-row payloads (a
 * real run with branch-profile rows, and a skip row), a sweep journal
 * (header and two records), a pipe frame, a progress sample and the
 * container of a fast-forwarded checkpoint, plus the two content keys
 * (a sweep's journal key and a checkpoint artifact's file name).
 * Journals and checkpoint stores an earlier build wrote are served only
 * while these hold; a deliberate format change bumps its version and
 * re-pins them. Large formats are pinned by size and CRC32.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "common/checksum.hh"
#include "common/progress.hh"
#include "common/run_codec.hh"
#include "common/subprocess.hh"
#include "common/sweep_journal.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs::bench
{
namespace
{

std::string
hex(const std::string &bytes)
{
    std::string out;
    char byte[3];
    for (char c : bytes) {
        std::snprintf(byte, sizeof(byte), "%02x", (unsigned)(uint8_t)c);
        out += byte;
    }
    return out;
}

/** "size:crc32" of @p bytes. */
std::string
digest(const std::string &bytes)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%zu:%08x", bytes.size(),
                  crc32(bytes));
    return text;
}

std::string
fileBytes(const std::string &path)
{
    std::string bytes;
    EXPECT_TRUE(readWholeFile(path, bytes)) << path;
    return bytes;
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/**
 * Pin the bytes of a default environment: a PUBS_CHECK policy changes
 * the rows and the sweep key, and PUBS_FAULT's killafter would end a
 * journaling test.
 */
void
defaultEnvironment()
{
    ::unsetenv("PUBS_CHECK");
    ::unsetenv("PUBS_FAULT");
}

/**
 * A real PUBS run with telemetry, so it carries a branch-profile row —
 * on h264ref_like one whose nine counters all differ, which pins their
 * order. The host-clock field is fixed.
 */
SweepRow
realRow()
{
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    params.telemetry = true;
    wl::Workload w = wl::makeWorkload("h264ref_like");
    SweepRow row;
    row.result = sim::simulate(params, w.program, 1000, 8000);
    row.result.workload = w.name;
    row.result.machine = "pubs";
    row.result.simSeconds = 0.5;
    return row;
}

SweepRow
skipRow()
{
    SweepRow row;
    row.error = "checker divergence at seq 123";
    row.errorKind = "check";
    row.phase = "measure";
    row.result.workload = "mcf_like";
    row.result.machine = "pubs";
    return row;
}

TEST(PinnedFormats, SweepRowPayloads)
{
    defaultEnvironment();
    SweepRow real = realRow();
    ASSERT_FALSE(real.result.branchProfile.empty());
    EXPECT_EQ(digest(encodeSweepRow(real)), "3105:9685f892");
    EXPECT_EQ(digest(encodeSweepRow(skipRow())), "3062:51a4a1fc");
}

TEST(PinnedFormats, JournalHeaderAndRecords)
{
    defaultEnvironment();
    std::string path = tempPath("pubs_pinned_formats.jnl");
    std::remove(path.c_str());
    {
        SweepJournal journal(path, 0x0123456789abcdefull, 3, false);
        journal.record(0, encodeSweepRow(skipRow()));
        journal.record(2, "second record");
    }
    std::string bytes = fileBytes(path);
    EXPECT_EQ(hex(bytes.substr(0, 32)),
              "505542534a4e4c31" // magic
              "01000000"         // version
              "00000000"         // reserved
              "efcdab8967452301" // spec key
              "0300000000000000" // slots
    );
    EXPECT_EQ(digest(bytes), "3147:5a7a2972");
    std::remove(path.c_str());
}

TEST(PinnedFormats, PipeFrame)
{
    EXPECT_EQ(hex(proc::encodeFrame("R payload")),
              "50425346"            // magic
              "09000000"            // length
              "63aa9b9c"            // payload CRC32
              "52207061796c6f6164" // payload
    );
}

TEST(PinnedFormats, ProgressSample)
{
    progress::Sample sample;
    sample.slot = 7;
    sample.insts = 123456;
    sample.totalInsts = 1000000;
    sample.kips = 2841.5;
    sample.rssBytes = 64ull << 20;
    sample.label = "mcf_like";
    EXPECT_EQ(hex(progress::encodeSample(sample)),
              "50425047"                  // magic
              "01"                        // version
              "0700000000000000"          // slot
              "40e2010000000000"          // insts
              "40420f0000000000"          // total insts
              "000000000033a640"          // kips
              "0000000400000000"          // rss bytes
              "08000000" "6d63665f6c696b65" // label
    );
}

TEST(PinnedFormats, CheckpointContainer)
{
    defaultEnvironment();
    wl::Workload w = wl::makeWorkload("sjeng_like");
    sim::Simulator simulator(sim::makeConfig(sim::Machine::Pubs),
                             w.program);
    ASSERT_EQ(simulator.fastForward(20000), 20000u);
    std::string bytes = simulator.saveCheckpoint("pubs");
    EXPECT_EQ(hex(bytes.substr(0, 28)),
              "50554253434b5031" // magic
              "01000000"         // format version
              "60d70d0000000000" // payload length
              "6318bfb4"         // payload CRC32
              "989e67d3"         // header CRC32
    );
    EXPECT_EQ(digest(bytes), "907132:47eca1c0");
}

TEST(PinnedFormats, ContentKeys)
{
    defaultEnvironment();
    // A sweep's key is what its journal header carries (bytes 16..24).
    std::string path = tempPath("pubs_pinned_formats_key.jnl");
    std::remove(path.c_str());
    SweepSpec spec;
    spec.options.jobs = 1;
    spec.options.warmup = 200;
    spec.options.insts = 1000;
    spec.options.journal = path;
    spec.verbose = false;
    spec.add(wl::makeWorkload("sjeng_like"),
             sim::makeConfig(sim::Machine::Base), "base");
    spec.add(wl::makeWorkload("mcf_like"),
             sim::makeConfig(sim::Machine::Pubs), "pubs");
    ASSERT_EQ(runSweep(spec).failed(), 0u);
    EXPECT_EQ(hex(fileBytes(path).substr(16, 8)), "1285a5424c71cdbb");
    std::remove(path.c_str());

    sim::CheckpointMeta meta;
    meta.workload = "sjeng_like";
    meta.machine = "pubs";
    meta.skipInsts = 20000;
    meta.programCrc = 0x1234abcd;
    meta.paramsFp = 0x5678ef01;
    EXPECT_EQ(sim::CheckpointStore("store").pathFor(meta),
              "store/ckpt-7453c8032f59d3e3.pubsckpt");
}

} // namespace
} // namespace pubs::bench
