/**
 * @file
 * Observability-plane tests: the strict RFC 8259 JSON referee, the
 * hierarchical host-phase profiler (nesting, self-time, trace export),
 * the progress sample codec and its frame-CRC protection, the
 * incremental frame splitter, the broker Meter, the dashboard renderer
 * (data block strict-parses back out of the HTML), the KIPS gate, and
 * the plane's byte-exactness contract: enabling profiler + progress
 * must not change a sweep's statsJson by one byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "common/json.hh"
#include "common/kips_gate.hh"
#include "common/profiler.hh"
#include "common/progress.hh"
#include "common/report.hh"
#include "common/stats.hh"
#include "common/subprocess.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

// --- strict JSON parser ----------------------------------------------

TEST(StrictJson, AcceptsBasicDocuments)
{
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse("{\"a\": [1, 2.5, -3e2], \"b\": null, "
                            "\"c\": \"x\\n\\u0041\", \"d\": true}",
                            v, error))
        << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->array()[1].number(), 2.5);
    EXPECT_TRUE(v.find("b")->isNull());
    EXPECT_EQ(v.find("c")->str(), "x\nA");
    EXPECT_TRUE(v.find("d")->boolean());
}

TEST(StrictJson, RejectsMalformedDocuments)
{
    std::string error;
    // Each entry violates the RFC (or our dup-key tightening).
    const char *bad[] = {
        "",
        "{",
        "{\"a\": 1,}",          // trailing comma
        "{\"a\": 1} x",         // trailing input
        "{'a': 1}",             // single quotes
        "{\"a\": NaN}",         // NaN literal
        "{\"a\": Infinity}",    // Infinity literal
        "{\"a\": 01}",          // leading zero
        "{\"a\": .5}",          // bare fraction
        "{\"a\": 1, \"a\": 2}", // duplicate key
        "{\"a\": \"\x01\"}",    // raw control char in string
        "{\"a\": \"\xff\"}",    // invalid UTF-8
        "// comment\n{}",
    };
    for (const char *doc : bad)
        EXPECT_FALSE(json::validate(doc, error)) << doc;
}

TEST(StrictJson, ErrorsCarryLineAndColumn)
{
    std::string error;
    ASSERT_FALSE(json::validate("{\n  \"a\": 1,\n}", error));
    EXPECT_NE(error.find("3:"), std::string::npos) << error;
}

// --- profiler --------------------------------------------------------

TEST(Profiler, NestedScopesAggregateSelfTime)
{
    prof::reset();
    prof::enable();
    {
        prof::Scope outer("test/outer");
        for (int i = 0; i < 3; ++i) {
            prof::Scope inner("test/inner");
            volatile uint64_t spin = 0;
            for (int j = 0; j < 50000; ++j)
                spin += (uint64_t)j;
        }
    }
    prof::disable();

    const std::vector<prof::PhaseStats> phases = prof::aggregate();
    const prof::PhaseStats *outer = nullptr, *inner = nullptr;
    for (const auto &p : phases) {
        if (p.path == "test/outer")
            outer = &p;
        if (p.path == "test/outer/test/inner")
            inner = &p;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 3u);
    // The child's time is excluded from the parent's self time.
    EXPECT_GE(outer->totalSeconds, inner->totalSeconds);
    EXPECT_LE(outer->selfSeconds,
              outer->totalSeconds - inner->totalSeconds + 1e-9);
    EXPECT_GT(inner->maxSeconds, 0.0);
    prof::reset();
}

TEST(Profiler, DisabledScopesRecordNothing)
{
    prof::reset();
    ASSERT_FALSE(prof::enabled());
    {
        prof::Scope scope("test/should_not_exist");
    }
    for (const auto &p : prof::aggregate())
        EXPECT_EQ(p.path.find("should_not_exist"), std::string::npos);
}

TEST(Profiler, TraceEventsJsonIsStrictAndRoundTrips)
{
    prof::reset();
    prof::enable();
    {
        prof::Scope a("test/alpha");
        prof::Scope b("test/beta");
    }
    prof::disable();

    const std::string doc = prof::traceEventsJson();
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(doc, v, error)) << error;
    const json::Value *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GE(events->array().size(), 2u);
    bool sawAlpha = false;
    for (const json::Value &event : events->array()) {
        EXPECT_EQ(event.stringOr("ph", ""), "X");
        EXPECT_GE(event.numberOr("dur", -1.0), 0.0);
        if (event.stringOr("name", "") == "test/alpha")
            sawAlpha = true;
    }
    EXPECT_TRUE(sawAlpha);
    prof::reset();
}

TEST(Profiler, FillRegistryPublishesPhases)
{
    prof::reset();
    prof::enable();
    {
        prof::Scope scope("test/registry_phase");
    }
    prof::disable();
    StatRegistry registry;
    prof::fillRegistry(registry);
    const std::string doc = registry.renderJson();
    EXPECT_NE(doc.find("registry_phase"), std::string::npos);
    std::string error;
    EXPECT_TRUE(json::validate(doc, error)) << error;
    prof::reset();
}

// --- progress sample codec + frames ----------------------------------

progress::Sample
sampleFixture()
{
    progress::Sample s;
    s.slot = 7;
    s.insts = 123456789;
    s.totalInsts = 1200000;
    s.kips = 2841.5;
    s.rssBytes = 96 << 20;
    s.label = "mcf_like";
    return s;
}

TEST(ProgressCodec, EncodeDecodeRoundTrip)
{
    const progress::Sample in = sampleFixture();
    const std::string payload = progress::encodeSample(in);
    ASSERT_TRUE(progress::isSamplePayload(payload));

    progress::Sample out;
    ASSERT_TRUE(progress::decodeSample(payload, out));
    EXPECT_EQ(out.slot, in.slot);
    EXPECT_EQ(out.insts, in.insts);
    EXPECT_EQ(out.totalInsts, in.totalInsts);
    EXPECT_DOUBLE_EQ(out.kips, in.kips);
    EXPECT_EQ(out.rssBytes, in.rssBytes);
    EXPECT_EQ(out.label, in.label);
}

TEST(ProgressCodec, RejectsTruncatedAndCorruptPayloads)
{
    const std::string payload = progress::encodeSample(sampleFixture());
    progress::Sample out;
    EXPECT_FALSE(progress::decodeSample("", out));
    EXPECT_FALSE(progress::decodeSample("PBPG", out));
    EXPECT_FALSE(
        progress::decodeSample(payload.substr(0, payload.size() - 1), out));
    EXPECT_FALSE(progress::decodeSample(payload + "x", out));
    std::string badMagic = payload;
    badMagic[0] ^= 0x5a;
    EXPECT_FALSE(progress::decodeSample(badMagic, out));
}

TEST(ProgressCodec, FrameCrcCatchesCorruptedSample)
{
    // The sample rides inside a CRC-checked pipe frame; flip a payload
    // byte after encoding and the *frame* layer must reject it before
    // the sample codec ever sees it.
    const std::string payload =
        "P" + progress::encodeSample(sampleFixture());
    std::string framed = proc::encodeFrame(payload);
    framed[proc::frameHeaderBytes + 4] ^= 0x01;
    std::string decoded;
    EXPECT_EQ(proc::nextFrame(framed, decoded), proc::FrameStatus::Corrupt);
}

TEST(FrameSplitter, ConsumesMultipleFramesFromOneBuffer)
{
    std::string buffer = proc::encodeFrame("P one") +
                         proc::encodeFrame("P two") +
                         proc::encodeFrame("R result");
    std::string payload;
    ASSERT_EQ(proc::nextFrame(buffer, payload), proc::FrameStatus::Ok);
    EXPECT_EQ(payload, "P one");
    ASSERT_EQ(proc::nextFrame(buffer, payload), proc::FrameStatus::Ok);
    EXPECT_EQ(payload, "P two");
    ASSERT_EQ(proc::nextFrame(buffer, payload), proc::FrameStatus::Ok);
    EXPECT_EQ(payload, "R result");
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(proc::nextFrame(buffer, payload),
              proc::FrameStatus::Truncated);
}

TEST(FrameSplitter, PartialFrameWaitsForMoreBytes)
{
    const std::string whole = proc::encodeFrame("partial test");
    std::string buffer = whole.substr(0, whole.size() - 3);
    std::string payload;
    EXPECT_EQ(proc::nextFrame(buffer, payload),
              proc::FrameStatus::Truncated);
    buffer += whole.substr(whole.size() - 3);
    ASSERT_EQ(proc::nextFrame(buffer, payload), proc::FrameStatus::Ok);
    EXPECT_EQ(payload, "partial test");
}

TEST(ProgressSink, CallbackSinkDeliversTaskSamples)
{
    std::vector<progress::Sample> seen;
    progress::setCallbackSink(
        [&](const progress::Sample &s) { seen.push_back(s); }, 0);
    progress::beginTask(3, "unit_workload", 1000);
    progress::tick(250);
    progress::phaseDone();
    progress::tick(500);
    progress::endTask();
    progress::clearSink();

    ASSERT_GE(seen.size(), 2u);
    const progress::Sample &last = seen.back();
    EXPECT_EQ(last.slot, 3u);
    EXPECT_EQ(last.label, "unit_workload");
    EXPECT_EQ(last.totalInsts, 1000u);
    EXPECT_EQ(last.insts, 750u); // 250 folded by phaseDone + 500
}

TEST(ProgressMeter, JsonIsStrictAndTracksRuns)
{
    progress::Meter::Config config;
    config.totalRuns = 4;
    config.quiet = true;
    progress::Meter meter(config);

    progress::Sample s = sampleFixture();
    s.slot = 0;
    meter.update(s);
    meter.runFinished(0, true);
    meter.runFinished(1, false);
    meter.setFarmTotals(2, 1, 1);
    meter.finish();

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(meter.json(), v, error)) << error;
    EXPECT_EQ(v.numberOr("total_runs", 0), 4.0);
    EXPECT_EQ(v.numberOr("done", 0), 2.0);
    EXPECT_EQ(v.numberOr("failed", 0), 1.0);
    EXPECT_EQ(v.numberOr("retries", 0), 2.0);
    EXPECT_EQ(v.numberOr("timeouts", 0), 1.0);
    EXPECT_EQ(v.numberOr("stale_kills", 0), 1.0);
}

// --- dashboard -------------------------------------------------------

/** Pull the embedded data document back out of the rendered page. */
std::string
extractDataBlock(const std::string &html)
{
    const std::string open = "type=\"application/json\">";
    const std::string close = "</script>";
    size_t begin = html.find(open);
    if (begin == std::string::npos)
        return "";
    begin += open.size();
    size_t end = html.find(close, begin);
    if (end == std::string::npos)
        return "";
    return html.substr(begin, end - begin);
}

TEST(Dashboard, DataBlockStrictParsesBackOutOfHtml)
{
    bench::ReportBuilder report;
    report.setTitle("golden <title> & escapes");
    bench::ReportBuilder::Run run;
    run.workload = "sjeng_like";
    run.machine = "base";
    run.ok = true;
    run.instructions = 1000000;
    run.cycles = 749586;
    run.ipc = 1.334;
    run.kips = 2198.4;
    run.branchMpki = 11.2;
    run.llcMpki = 0.4;
    run.unconfidentRate = 0.21;
    report.addRun(run);
    run.machine = "pubs";
    run.ipc = 1.580;
    report.addRun(run);
    // A workload name with a script terminator must not break the page.
    run.workload = "evil</script>name";
    report.addRun(run);
    report.setStatsJson("{\"pubs\": {\"telemetry\": "
                        "{\"slice_coverage\": 0.82, "
                        "\"slice_accuracy\": 0.91}}}");

    const std::string html = report.html();
    EXPECT_EQ(html.find("https://"), std::string::npos)
        << "dashboard must be self-contained (no CDN)";
    EXPECT_EQ(html.find("http://"), std::string::npos);

    const std::string data = extractDataBlock(html);
    ASSERT_FALSE(data.empty());
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(data, v, error)) << error;
    EXPECT_EQ(v.stringOr("title", ""), "golden <title> & escapes");
    ASSERT_NE(v.find("runs"), nullptr);
    EXPECT_EQ(v.find("runs")->array().size(), 3u);
    EXPECT_EQ(v.find("runs")->array()[2].stringOr("workload", ""),
              "evil</script>name");
    const json::Value *coverage =
        v.find("stats")->find("pubs", "telemetry");
    ASSERT_NE(coverage, nullptr);
    EXPECT_DOUBLE_EQ(coverage->numberOr("slice_coverage", 0), 0.82);
}

TEST(Dashboard, InvalidStatsJsonIsDroppedNotEmbedded)
{
    bench::ReportBuilder report;
    report.setStatsJson("{broken");
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(report.dataJson(), v, error)) << error;
    EXPECT_EQ(v.find("stats"), nullptr);
}

TEST(Dashboard, WriteHtmlIsAtomicAndComplete)
{
    const std::string dir = "obs_dash_test_dir";
    std::filesystem::create_directory(dir);
    bench::ReportBuilder report;
    report.setTitle("write test");
    const std::string path = dir + "/dashboard.html";
    ASSERT_EQ(report.writeHtml(path), "");
    std::ifstream in(path);
    std::string html((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- KIPS gate -------------------------------------------------------

std::string
hostspeedDoc(double scale)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\": \"t\", \"runs\": ["
        "{\"workload\": \"a\", \"machine\": \"base\", \"kips\": %.2f},"
        "{\"workload\": \"b\", \"machine\": \"base\", \"kips\": %.2f},"
        "{\"workload\": \"c\", \"machine\": \"pubs\", \"kips\": %.2f}"
        "], \"geomean_kips\": 0}",
        2000.0 * scale, 3000.0 * scale, 4000.0 * scale);
    return buf;
}

TEST(KipsGate, SelfReplayPasses)
{
    const std::string doc = hostspeedDoc(1.0);
    bench::GateResult r = bench::runKipsGate(doc, doc);
    EXPECT_EQ(r.error, "");
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.regressions(), 0u);
    EXPECT_FALSE(r.geomeanRegressed);
    EXPECT_NEAR(r.geomeanRatio, 1.0, 1e-9);
}

TEST(KipsGate, Synthetic20PercentRegressionFails)
{
    bench::GateResult r =
        bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(0.8));
    EXPECT_EQ(r.error, "");
    EXPECT_FALSE(r.pass);
    EXPECT_EQ(r.regressions(), 3u); // 20% > 15% per-workload tolerance
    EXPECT_TRUE(r.geomeanRegressed); // 20% > 7% geomean tolerance
    EXPECT_NE(r.report().find("FAIL"), std::string::npos);
}

TEST(KipsGate, WithinToleranceNoisePasses)
{
    // 10% down: within the 15% per-workload band but beyond the 7%
    // geomean band -> geomean alone must catch it.
    bench::GateResult r =
        bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(0.90));
    EXPECT_EQ(r.regressions(), 0u);
    EXPECT_TRUE(r.geomeanRegressed);
    EXPECT_FALSE(r.pass);

    // 5% down: inside both bands.
    r = bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(0.95));
    EXPECT_TRUE(r.pass);

    // Faster never fails.
    r = bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(1.4));
    EXPECT_TRUE(r.pass);
}

TEST(KipsGate, MissingRunAndBadInputsAreErrors)
{
    bench::GateResult r = bench::runKipsGate(hostspeedDoc(1.0),
                                             "{\"runs\": ["
                                             "{\"workload\": \"a\", "
                                             "\"machine\": \"base\", "
                                             "\"kips\": 2000}]}");
    EXPECT_EQ(r.error, "");
    EXPECT_FALSE(r.pass);
    EXPECT_EQ(r.missing.size(), 2u);

    r = bench::runKipsGate("{nonsense", hostspeedDoc(1.0));
    EXPECT_NE(r.error, "");
    r = bench::runKipsGate(hostspeedDoc(1.0), "{\"runs\": []}");
    EXPECT_NE(r.error, "");
}

TEST(KipsGate, LedgerAppendsRowsWithHeaderOnce)
{
    const std::string dir = "obs_ledger_test_dir";
    std::filesystem::create_directory(dir);
    const std::string path = dir + "/BENCH_LEDGER.md";
    bench::GateResult pass =
        bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(1.0));
    bench::GateResult fail =
        bench::runKipsGate(hostspeedDoc(1.0), hostspeedDoc(0.8));
    ASSERT_EQ(bench::appendLedger(path, pass, "run-1"), "");
    ASSERT_EQ(bench::appendLedger(path, fail, "run-2"), "");
    std::string text;
    ASSERT_TRUE(readWholeFile(path, text));
    EXPECT_EQ(text.find("# Host-speed ledger"), 0u);
    EXPECT_EQ(text.find("| run |"), text.rfind("| run |")); // one header
    EXPECT_NE(text.find("| run-1 |"), std::string::npos);
    EXPECT_NE(text.find("| run-2 |"), std::string::npos);
    EXPECT_NE(text.find("**FAIL**"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- byte-exactness with the plane enabled ---------------------------

TEST(ObservabilityPlane, SweepStatsJsonIdenticalWithPlaneOnAndOff)
{
    auto buildSpec = [] {
        bench::SweepSpec spec;
        spec.verbose = false;
        spec.options.jobs = 2;
        spec.options.insts = 20000;
        spec.options.warmup = 2000;
        wl::Workload w = wl::makeWorkload("hmmer_like");
        spec.add(w, sim::makeConfig(sim::Machine::Base), "base");
        spec.add(w, sim::makeConfig(sim::Machine::Pubs), "pubs");
        return spec;
    };

    const std::string plain = bench::runSweep(buildSpec()).statsJson();

    prof::reset();
    prof::enable(64);
    progress::Meter::Config mc;
    mc.totalRuns = 2;
    mc.quiet = true;
    progress::Meter meter(mc);
    progress::setCallbackSink(
        [&](const progress::Sample &s) { meter.update(s); }, 0);
    const std::string observed = bench::runSweep(buildSpec()).statsJson();
    progress::clearSink();
    meter.finish();
    prof::disable();
    prof::reset();

    EXPECT_EQ(plain, observed);
}

} // namespace
} // namespace pubs
