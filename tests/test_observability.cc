/**
 * @file
 * Observability-layer tests: histogram bucket scaling and value-unit
 * percentiles, no histogram saturating on a long-latency program, JSON
 * escaping and the hierarchical StatRegistry renderer,
 * the O3PipeView pipeline trace, and the PUBS slice telemetry measured
 * against a hand-built unpredictable-branch program.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/stats.hh"
#include "cpu/telemetry.hh"
#include "isa/builder.hh"
#include "json.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "trace/pipeview.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

// --- Histogram bucket scaling / percentiles ---

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h(8);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Histogram, WideLinearBucketsReportValueUnits)
{
    Histogram h(8, 10);
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(9), 0u);
    EXPECT_EQ(h.bucketOf(10), 1u);
    EXPECT_EQ(h.bucketOf(79), 7u);
    EXPECT_EQ(h.bucketOf(80), 8u); // overflow
    EXPECT_EQ(h.bucketLow(3), 30u);

    for (uint64_t v = 0; v < 80; ++v)
        h.sample(v);
    // Percentiles are the lower bound of the containing bucket, in
    // sample value units rather than bucket indices.
    EXPECT_EQ(h.percentile(0.5), 30u);
    EXPECT_EQ(h.percentile(1.0), 70u);
    EXPECT_DOUBLE_EQ(h.mean(), 39.5);
}

TEST(Histogram, Log2Buckets)
{
    Histogram h(10, 1, BucketScale::Log2);
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(1), 1u);
    EXPECT_EQ(h.bucketOf(2), 2u);
    EXPECT_EQ(h.bucketOf(3), 2u);
    EXPECT_EQ(h.bucketOf(4), 3u);
    EXPECT_EQ(h.bucketOf(1023), 10u);
    EXPECT_EQ(h.bucketOf(1024), 10u); // clamped to overflow
    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketLow(1), 1u);
    EXPECT_EQ(h.bucketLow(4), 8u);

    h.sample(0);
    h.sample(5);
    h.sample(300);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // [4, 8)
    EXPECT_EQ(h.bucket(9), 1u); // [256, 512)
    EXPECT_EQ(h.percentile(1.0), 256u);
}

TEST(Histogram, AllOverflowPercentile)
{
    Histogram h(4);
    h.sample(1000);
    h.sample(2000);
    // Every sample beyond the last in-range bucket lands in overflow;
    // the percentile degrades to the overflow bucket's lower bound.
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.samples(), 2u);
}

/** Every "<key>_buckets" array under @p v, keyed by its dotted path. */
void
collectBuckets(const json::Value &v, const std::string &path,
               std::vector<std::pair<std::string, const json::Value *>> &out)
{
    for (const auto &[key, member] : v.members()) {
        if (member.isObject())
            collectBuckets(member, path + key + ".", out);
        else if (member.isArray() && key.ends_with("_buckets"))
            out.emplace_back(path + key, &member);
    }
}

TEST(Histogram, NoneOverflowsOnMcf)
{
    // mcf_like's LLC-miss-bound misspeculation penalties, IQ waits and
    // slice latencies run to hundreds of cycles: a percentile of a
    // histogram whose samples land in overflow reports the bound, not
    // the distribution.
    wl::Workload w = wl::makeWorkload("mcf_like");
    for (sim::Machine machine : {sim::Machine::Base, sim::Machine::Pubs}) {
        cpu::CoreParams params = sim::makeConfig(machine);
        params.telemetry = true;
        params.heartbeatInterval = 0;
        sim::Simulator simulator(params, w.program);
        (void)simulator.run(20000, 100000);
        StatRegistry registry;
        simulator.pipeline().fillRegistry(registry);
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(registry.renderJson(), doc, error)) << error;
        std::vector<std::pair<std::string, const json::Value *>> buckets;
        collectBuckets(doc, "", buckets);
        ASSERT_FALSE(buckets.empty());
        for (const auto &[path, counts] : buckets) {
            ASSERT_FALSE(counts->array().empty()) << path;
            EXPECT_EQ(counts->array().back().number(), 0.0)
                << sim::machineName(machine) << ": " << path;
        }
    }
}

// --- JSON rendering ---

TEST(Json, EscapeSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-42.0), "-42");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
}

TEST(Json, RegistryNestsDottedGroups)
{
    StatRegistry registry;
    StatGroup &run = registry.group("run");
    run.addString("workload", "hand\"built");
    run.add("seed", 7);
    registry.group("pubs").add("slice_insts", 10);
    registry.group("pubs.conf_tab").add("updates", 3);
    registry.group("pubs.telemetry").addVector("ipc", {1.0, 0.5});

    std::string json = registry.renderJson();

    // The dotted names nest as sub-objects of "pubs".
    EXPECT_NE(json.find("\"pubs\": {"), std::string::npos);
    EXPECT_NE(json.find("\"conf_tab\": {"), std::string::npos);
    EXPECT_NE(json.find("\"telemetry\": {"), std::string::npos);
    EXPECT_EQ(json.find("\"pubs.conf_tab\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"hand\\\"built\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ipc\": [1, 0.5]"), std::string::npos);

    // Structurally sound: balanced braces, never negative depth.
    int depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // find() resolves full dotted names; group() re-finds, not duplicates.
    EXPECT_NE(registry.find("pubs.conf_tab"), nullptr);
    EXPECT_EQ(registry.find("pubs.conf_tab")->get("updates"), 3.0);
    size_t before = registry.size();
    registry.group("pubs");
    EXPECT_EQ(registry.size(), before);
}

TEST(Json, HistogramStatsInGroup)
{
    Histogram h(8, 2);
    for (uint64_t v = 0; v < 16; ++v)
        h.sample(v);
    StatGroup group("g");
    group.addHistogram("wait", h);
    EXPECT_EQ(group.get("wait_samples"), 16.0);
    EXPECT_EQ(group.get("wait_bucket_width"), 2.0);
    EXPECT_EQ(group.get("wait_p50"), 6.0);
    EXPECT_EQ(group.get("wait_overflow"), 0.0);
    ASSERT_EQ(group.vectorEntries().size(), 1u);
    EXPECT_EQ(group.vectorEntries()[0].values.size(), 9u);

    h.sample(16);
    h.sample(1000);
    group.addHistogram("wait", h);
    EXPECT_EQ(group.get("wait_overflow"), 2.0);
}

// --- Shared test program: an unpredictable data-dependent branch fed
// by an xorshift chain, so its backward slice is long and well-defined.

isa::Program
xorshiftBranchProgram(int iterations)
{
    isa::ProgramBuilder b("xorshift_branch");
    b.li(1, 123456789); // x
    b.li(2, 0);         // i
    b.li(3, iterations); // N
    b.li(7, 0);         // zero
    b.li(8, 1 << 20);   // divide chain value
    b.li(9, 1);         // divisor
    b.label("loop");
    // A 20-cycle unpipelined divide holds the ROB head while the branch
    // slice executes behind it, so the slice is still in flight when the
    // misprediction resolves and the true-slice ROB walk runs.
    b.div(8, 8, 9);
    b.slli(4, 1, 13).xor_(1, 1, 4); // x ^= x << 13
    b.srli(4, 1, 7).xor_(1, 1, 4);  // x ^= x >> 7
    b.slli(4, 1, 17).xor_(1, 1, 4); // x ^= x << 17
    b.andi(5, 1, 1);                // parity bit: the unpredictable value
    b.bne(5, 7, "skip");            // data-dependent branch
    b.addi(6, 6, 1);
    b.label("skip");
    b.addi(2, 2, 1);
    b.blt(2, 3, "loop");
    b.halt();
    return b.build();
}

// --- O3PipeView trace ---

TEST(PipeView, DeterministicAndWellFormed)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "pubs_pipeview_test";
    fs::create_directories(dir);

    isa::Program program = xorshiftBranchProgram(4000);
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);

    auto runOnce = [&](const std::string &path) -> sim::RunResult {
        sim::Simulator simulator(params, program);
        simulator.pipeline().attachPipeView(
            std::make_unique<trace::PipeViewWriter>(path));
        sim::RunResult result = simulator.run(0, 20000);
        // Detaching destroys the writer, closing the file.
        simulator.pipeline().attachPipeView(nullptr);
        return result;
    };

    std::string pathA = (dir / "a.trace").string();
    std::string pathB = (dir / "b.trace").string();
    sim::RunResult result = runOnce(pathA);
    runOnce(pathB);

    std::ifstream a(pathA), b(pathB);
    ASSERT_TRUE(a.good());
    ASSERT_TRUE(b.good());
    std::stringstream bufA, bufB;
    bufA << a.rdbuf();
    bufB << b.rdbuf();
    ASSERT_FALSE(bufA.str().empty());
    EXPECT_EQ(bufA.str(), bufB.str()); // bit-identical across runs

    // Well-formed: 7 lines per record, stages in order, retire count
    // matches committed + squashed instructions.
    uint64_t retires = 0, squashRetires = 0, fetches = 0;
    std::istringstream lines(bufA.str());
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_EQ(line.rfind("O3PipeView:", 0), 0u) << line;
        if (line.rfind("O3PipeView:fetch:", 0) == 0)
            ++fetches;
        if (line.rfind("O3PipeView:retire:", 0) == 0) {
            ++retires;
            if (line.rfind("O3PipeView:retire:0:store:0", 0) == 0)
                ++squashRetires;
        }
    }
    EXPECT_EQ(fetches, retires);
    EXPECT_EQ(retires,
              result.pipeline.committed + result.pipeline.squashed);
    // The unpredictable branch guarantees squashes appeared.
    EXPECT_GT(squashRetires, 0u);

    fs::remove_all(dir);
}

// --- PUBS slice telemetry ---

class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        params_ = sim::makeConfig(sim::Machine::Pubs);
        params_.telemetry = true;
        params_.heartbeatInterval = 5000;
    }

    cpu::CoreParams params_;
};

TEST_F(TelemetryTest, SliceCoverageAndAccuracyBounds)
{
    isa::Program program = xorshiftBranchProgram(30000);
    sim::Simulator simulator(params_, program);
    sim::RunResult result = simulator.run(20000, 100000);

    const cpu::CoreTelemetry *t = simulator.pipeline().telemetry();
    ASSERT_NE(t, nullptr);
    const cpu::PipelineStats &s = simulator.pipeline().stats();

    // The xorshift parity branch mispredicts constantly, so true
    // backward slices were walked.
    EXPECT_GT(s.condMispredicts, 100u);
    EXPECT_GT(t->trueSliceInsts(), 0u);
    EXPECT_LE(t->trueSliceCovered(), t->trueSliceInsts());

    // Coverage: the xorshift chain feeding the branch is exactly what
    // the slice predictor is built to catch.
    EXPECT_GT(t->sliceCoverage(), 0.0);
    EXPECT_LE(t->sliceCoverage(), 1.0);
    EXPECT_GE(t->sliceAccuracy(), 0.0);
    EXPECT_LE(t->sliceAccuracy(), 1.0);
    EXPECT_LE(t->committedUnconfidentTrue(), t->committedUnconfident());

    // Host-speed measurement rode along.
    EXPECT_GT(result.simSeconds, 0.0);
    EXPECT_GT(result.kips(), 0.0);
}

TEST_F(TelemetryTest, BranchProfileFindsTheCulprit)
{
    isa::Program program = xorshiftBranchProgram(30000);
    sim::Simulator simulator(params_, program);
    simulator.run(0, 80000);

    const cpu::CoreTelemetry *t = simulator.pipeline().telemetry();
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->branchSites().empty());

    auto top = t->topBranchSites(10);
    ASSERT_FALSE(top.empty());
    // Sorted by misprediction count, descending.
    for (size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].second.mispredicts, top[i].second.mispredicts);
    // The hottest site is the parity branch: most mispredictions and a
    // real penalty accumulated.
    EXPECT_GT(top[0].second.mispredicts, 100u);
    EXPECT_GT(top[0].second.penaltySum, top[0].second.mispredicts);

    std::string table = t->formatBranchProfile(5);
    EXPECT_NE(table.find("mispredicts"), std::string::npos);
    EXPECT_NE(table.find("0x"), std::string::npos);
}

TEST_F(TelemetryTest, HeartbeatSamplesAndWarmupReset)
{
    isa::Program program = xorshiftBranchProgram(30000);
    sim::Simulator simulator(params_, program);
    simulator.run(30000, 60000); // warmup resets telemetry mid-run

    const cpu::CoreTelemetry *t = simulator.pipeline().telemetry();
    ASSERT_NE(t, nullptr);
    const cpu::PipelineStats &s = simulator.pipeline().stats();

    ASSERT_GT(t->heartbeats().size(), 2u);
    Cycle warmupEnd = simulator.pipeline().now() - s.cycles;
    Cycle previous = 0;
    double totalIpc = 0.0;
    for (const cpu::HeartbeatSample &sample : t->heartbeats()) {
        // Samples are post-warmup, strictly ordered, and plausible.
        EXPECT_GT(sample.cycle, warmupEnd);
        EXPECT_GT(sample.cycle, previous);
        previous = sample.cycle;
        EXPECT_GE(sample.intervalIpc, 0.0);
        EXPECT_LE(sample.intervalIpc, 4.0); // commit width bound
        EXPECT_GE(sample.intervalMpki, 0.0);
        totalIpc += sample.intervalIpc;
    }
    EXPECT_GT(totalIpc, 0.0);

    // Priority-entry occupancy was sampled every post-warmup cycle.
    EXPECT_EQ(t->priorityOccupancy().samples(), s.cycles);
}

TEST_F(TelemetryTest, RegistryCarriesTheFullPicture)
{
    isa::Program program = xorshiftBranchProgram(30000);
    sim::Simulator simulator(params_, program);
    simulator.run(10000, 60000);

    StatRegistry registry;
    simulator.pipeline().fillRegistry(registry);

    const StatGroup *pipeline = registry.find("pipeline");
    ASSERT_NE(pipeline, nullptr);
    EXPECT_GT(pipeline->get("committed"), 0.0);
    EXPECT_TRUE(pipeline->has("misspec_penalty_p50"));

    const StatGroup *iq = registry.find("iq");
    ASSERT_NE(iq, nullptr);
    EXPECT_GT(iq->get("priority_entries"), 0.0);
    EXPECT_TRUE(iq->has("wait_p90"));

    ASSERT_NE(registry.find("mem"), nullptr);
    EXPECT_GT(registry.find("mem")->get("l1i_accesses"), 0.0);

    const StatGroup *telemetry = registry.find("pubs.telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_GT(telemetry->get("true_slice_insts"), 0.0);

    const StatGroup *heartbeat = registry.find("heartbeat");
    ASSERT_NE(heartbeat, nullptr);
    EXPECT_GT(heartbeat->get("samples"), 0.0);

    ASSERT_NE(registry.find("branch_profile"), nullptr);
    EXPECT_GT(registry.find("branch_profile")->get("static_branches"),
              0.0);

    // Conf-tab dynamics are internally consistent: every update is an
    // allocation, a counter movement, or a no-op at the rails.
    const StatGroup *confTab = registry.find("pubs.conf_tab");
    ASSERT_NE(confTab, nullptr);
    double updates = confTab->get("updates");
    EXPECT_GT(updates, 0.0);
    EXPECT_GE(updates, confTab->get("allocations") +
                           confTab->get("increments") +
                           confTab->get("resets") +
                           confTab->get("decrements"));
    EXPECT_GT(confTab->get("resets"), 0.0); // mispredicting workload

    // The whole registry renders to JSON without blowing up.
    std::string json = registry.renderJson();
    EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(json.find("\"heartbeat\""), std::string::npos);
}

TEST(Telemetry, OffByDefaultAndNullWhenDisabled)
{
    isa::Program program = xorshiftBranchProgram(2000);
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    EXPECT_FALSE(params.telemetry);
    sim::Simulator simulator(params, program);
    simulator.run(0, 5000);
    EXPECT_EQ(simulator.pipeline().telemetry(), nullptr);
    EXPECT_EQ(simulator.pipeline().pipeView(), nullptr);

    // fillRegistry still produces the machine groups, just without the
    // telemetry-only ones.
    StatRegistry registry;
    simulator.pipeline().fillRegistry(registry);
    EXPECT_NE(registry.find("pipeline"), nullptr);
    EXPECT_NE(registry.find("pubs"), nullptr);
    EXPECT_EQ(registry.find("pubs.telemetry"), nullptr);
    EXPECT_EQ(registry.find("heartbeat"), nullptr);
}

} // namespace
} // namespace pubs
