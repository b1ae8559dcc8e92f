/**
 * @file
 * Observability-plane tests: the strict RFC 8259 JSON referee, the
 * host-phase span recorder (nesting, the per-thread cap, trace export),
 * the progress sample codec and its frame-CRC protection, the
 * incremental frame splitter, the broker Meter, the dashboard renderer
 * (data block strict-parses back out of the HTML), and the plane's
 * byte-exactness contract: enabling profiler + progress must not change
 * a sweep's statsJson by one byte.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "common/json.hh"
#include "common/profiler.hh"
#include "common/progress.hh"
#include "common/report.hh"
#include "common/serialize.hh"
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

/** The recorded spans, strict-parsed out of traceEventsJson(). */
json::Value
traceDocument()
{
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(prof::traceEventsJson(), doc, error)) << error;
    return doc;
}

/** The trace's events named @p name. */
std::vector<json::Value>
spansNamed(const json::Value &doc, const std::string &name)
{
    std::vector<json::Value> out;
    if (const json::Value *events = doc.find("traceEvents")) {
        for (const json::Value &event : events->array())
            if (event.stringOr("name", "") == name)
                out.push_back(event);
    }
    return out;
}

TEST(Profiler, NestedScopesShareATidAndNest)
{
    prof::reset();
    prof::enable();
    {
        prof::Scope outer("test/outer");
        for (int i = 0; i < 3; ++i) {
            prof::Scope inner("test/inner");
            volatile uint64_t spin = 0;
            for (int j = 0; j < 50000; ++j)
                spin = spin + (uint64_t)j;
        }
    }
    prof::disable();

    const json::Value doc = traceDocument();
    const std::vector<json::Value> outer = spansNamed(doc, "test/outer");
    const std::vector<json::Value> inner = spansNamed(doc, "test/inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 3u);
    const double begin = outer[0].numberOr("ts", -1.0);
    const double end = begin + outer[0].numberOr("dur", -1.0);
    for (const json::Value &span : inner) {
        EXPECT_EQ(span.numberOr("tid", -1.0), outer[0].numberOr("tid", -2.0));
        const double ts = span.numberOr("ts", -1.0);
        EXPECT_GE(ts, begin);
        // Timestamps are whole nanoseconds printed in microseconds.
        EXPECT_LE(ts + span.numberOr("dur", -1.0), end + 1e-6);
    }
    prof::reset();
}

TEST(Profiler, DisabledScopesRecordNothing)
{
    prof::reset();
    ASSERT_FALSE(prof::enabled());
    {
        prof::Scope scope("test/should_not_exist");
    }
    const json::Value doc = traceDocument();
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array().empty());
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

    const json::Value v = traceDocument();
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
    const json::Value *dropped = v.find("otherData", "dropped_spans");
    ASSERT_NE(dropped, nullptr);
    EXPECT_EQ(dropped->number(), 0.0);
    prof::reset();
}

TEST(Profiler, SpansPastTheCapAreCountedAsDropped)
{
    prof::reset();
    prof::enable();
    for (size_t i = 0; i <= prof::traceCapacity; ++i)
        prof::Scope span("test/capped");
    prof::disable();

    // A DOM of 2^17 events is large; count the spans in the text and
    // parse only the trailing otherData object.
    const std::string doc = prof::traceEventsJson();
    size_t spans = 0;
    for (size_t at = doc.find("\"test/capped\""); at != std::string::npos;
         at = doc.find("\"test/capped\"", at + 1))
        ++spans;
    EXPECT_EQ(spans, prof::traceCapacity);
    const size_t other = doc.rfind("{\"dropped_spans\"");
    ASSERT_NE(other, std::string::npos);
    json::Value otherData;
    std::string error;
    ASSERT_TRUE(json::parse(doc.substr(other, doc.size() - other - 2),
                            otherData, error))
        << error;
    EXPECT_EQ(otherData.numberOr("dropped_spans", -1.0), 1.0);
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

TEST(FrameSplitter, ImpossibleLengthIsCorruptFromTheHeaderAlone)
{
    for (uint32_t length : {0xffffffffu, proc::frameMaxPayload + 1}) {
        std::string buffer = proc::encodeFrame("");
        ASSERT_EQ(buffer.size(), proc::frameHeaderBytes);
        Serializer field;
        field.u32(length);
        buffer.replace(4, 4, field.data());
        std::string payload;
        EXPECT_EQ(proc::nextFrame(buffer, payload),
                  proc::FrameStatus::Corrupt)
            << length;
        EXPECT_EQ(buffer.size(), proc::frameHeaderBytes);
    }
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
        [&](const progress::Sample &s) { seen.push_back(s); });
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

TEST(ProgressMeter, LineShowsDoneActiveKipsAndLaggard)
{
    progress::Meter::Config config;
    config.totalRuns = 4;
    config.quiet = true;
    progress::Meter meter(config);

    progress::Sample ahead = sampleFixture();
    ahead.slot = 1;
    ahead.insts = 900;
    ahead.totalInsts = 1000;
    ahead.kips = 1000.0;
    ahead.label = "sjeng_like";
    progress::Sample behind = ahead;
    behind.slot = 2;
    behind.insts = 250;
    behind.kips = 500.0;
    behind.label = "mcf_like";
    meter.update(ahead);
    meter.update(behind);
    meter.runFinished(0, true);

    EXPECT_EQ(meter.line(), "[1/4] 25%  2 active  1500 KIPS  mcf_like 25%");
    meter.runFinished(3, false);
    meter.setFarmTotals(2, 0, 0);
    EXPECT_EQ(meter.line(), "[2/4] 50%  2 active  1500 KIPS  mcf_like 25%"
                            "  failed 1  retries 2");
    meter.finish();
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
    prof::enable();
    progress::Meter::Config mc;
    mc.totalRuns = 2;
    mc.quiet = true;
    progress::Meter meter(mc);
    progress::setCallbackSink(
        [&](const progress::Sample &s) { meter.update(s); });
    const std::string observed = bench::runSweep(buildSpec()).statsJson();
    progress::clearSink();
    meter.finish();
    prof::disable();
    prof::reset();

    EXPECT_EQ(plain, observed);
}

} // namespace
} // namespace pubs
