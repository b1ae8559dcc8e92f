/**
 * @file
 * Observability-plane tests: the strict RFC 8259 JSON referee, the
 * host-phase span recorder (nesting, the per-thread cap, trace export),
 * the frame splitter, the progress meter, the dashboard renderer (data
 * block strict-parses back out of the HTML), and the plane's
 * byte-exactness contract: enabling the profiler and the progress meter
 * must not change a sweep's statsJson by one byte, on threads or on
 * worker processes.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <regex>
#include <thread>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "common/profiler.hh"
#include "common/progress.hh"
#include "common/report.hh"
#include "common/serialize.hh"
#include "common/subprocess.hh"
#include "json.hh"
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

// --- frames ----------------------------------------------------------

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

TEST(ProgressMeter, JsonIsStrictAndTracksRuns)
{
    bench::ProgressMeter meter("");
    meter.addRuns(4);
    meter.runFinished(true, 1000000);
    meter.runFinished(false, 0);
    meter.setFarmTotals(2, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    meter.finish();

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(meter.json(), v, error)) << error;
    EXPECT_EQ(v.numberOr("total_runs", 0), 4.0);
    EXPECT_EQ(v.numberOr("done", 0), 2.0);
    EXPECT_EQ(v.numberOr("failed", 0), 1.0);
    EXPECT_EQ(v.numberOr("pct", 0), 50.0);
    EXPECT_EQ(v.numberOr("retries", 0), 2.0);
    EXPECT_EQ(v.numberOr("timeouts", 0), 1.0);
    // KIPS: the finished runs' instructions over the meter's wall time.
    const double elapsed = v.numberOr("elapsed_seconds", 0);
    EXPECT_GT(elapsed, 0.0);
    EXPECT_NEAR(v.numberOr("kips", 0) * elapsed, 1000.0, 1e-3);
    EXPECT_EQ(v.find("active"), nullptr);
    EXPECT_EQ(v.find("stale_kills"), nullptr);
}

TEST(ProgressMeter, LineShowsDoneKipsFailuresAndRetries)
{
    bench::ProgressMeter meter("");
    meter.addRuns(4);
    meter.runFinished(true, 0);
    EXPECT_EQ(meter.line(), "[1/4] 25%");
    meter.runFinished(false, 0);
    meter.setFarmTotals(2, 0);
    EXPECT_EQ(meter.line(), "[2/4] 50%  failed 1  retries 2");
    meter.runFinished(true, 5000000);
    EXPECT_TRUE(std::regex_match(
        meter.line(),
        std::regex("\\[3/4\\] 75%  [1-9][0-9]* KIPS  failed 1  retries 2")))
        << meter.line();
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
    const bench::RunOptions options;
    bench::SweepRow row;
    row.result.workload = "sjeng_like";
    row.result.machine = "base";
    row.result.pipeline.committed = 1000000;
    row.result.pipeline.cycles = 749586;
    row.result.simSeconds = 0.455;
    row.result.unconfidentBranchRate = 0.21;
    report.addRun(row, options);
    row.result.machine = "pubs";
    row.result.pipeline.cycles = 632911;
    report.addRun(row, options);
    // A workload name with a script terminator must not break the page.
    row.result.workload = "evil</script>name";
    report.addRun(row, options);
    StatRegistry stats;
    StatGroup &telemetry = stats.group("pubs.telemetry");
    telemetry.add("slice_coverage", 0.82);
    telemetry.add("slice_accuracy", 0.91);
    report.setStats(stats);

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

/** The same JSON scalar: kind and value. */
bool
sameScalar(const json::Value &a, const json::Value &b)
{
    return a.kind() == b.kind() && a.boolean() == b.boolean() &&
           a.number() == b.number() && a.str() == b.str();
}

TEST(Dashboard, RunObjectsHoldTheirStatsJsonRows)
{
    // The dashboard renders a row as statsJson() does, and adds to it.
    const std::string dir = "obs_dash_rows_dir";
    std::filesystem::create_directory(dir);
    bench::SweepSpec spec;
    spec.verbose = false;
    spec.options.jobs = 2;
    spec.options.insts = 20000;
    spec.options.warmup = 2000;
    spec.options.report = dir + "/dashboard.html";
    spec.options.cpiStack = true;
    spec.options.branchProfile = true;
    wl::Workload w = wl::makeWorkload("hmmer_like");
    spec.add(w, sim::makeConfig(sim::Machine::Base), "base");
    spec.add(w, sim::makeConfig(sim::Machine::Pubs), "pubs");
    bench::globalReport().clear();
    const std::string stats = bench::runSweep(spec).statsJson();
    bench::globalReport().clear();

    json::Value sweep, dashboard;
    std::string error, html;
    ASSERT_TRUE(json::parse(stats, sweep, error)) << error;
    ASSERT_TRUE(readWholeFile(spec.options.report, html));
    ASSERT_TRUE(json::parse(extractDataBlock(html), dashboard, error))
        << error;
    const auto &rows = sweep.find("runs")->array();
    const auto &runs = dashboard.find("runs")->array();
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(runs.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        for (const auto &[key, value] : rows[i].members()) {
            SCOPED_TRACE(rows[i].stringOr("machine", "") + " " + key);
            const json::Value *shown = runs[i].find(key);
            ASSERT_NE(shown, nullptr);
            EXPECT_TRUE(sameScalar(*shown, value));
        }
        EXPECT_NE(runs[i].find("kips"), nullptr);
        EXPECT_NE(runs[i].find("cpi"), nullptr);
        ASSERT_NE(runs[i].find("branches"), nullptr);
        EXPECT_NE(runs[i].find("branches")->array().at(0).find(
                      "conf_correct"),
                  nullptr);
    }
    std::filesystem::remove_all(dir);
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

/**
 * A two-run sweep on two threads (@p workers = &RunOptions::jobs) or
 * two worker processes (&RunOptions::procs) prints the same statsJson
 * with the plane off and on, turned on as bench_figures does:
 * --progress into a progress.json under @p dir, and --trace-events. Its
 * progress.json counts both runs and lists no run in flight.
 */
void
expectPlaneChangesNoByte(unsigned bench::RunOptions::*workers,
                         const std::string &dir)
{
    auto buildSpec = [&] {
        bench::SweepSpec spec;
        spec.verbose = false;
        spec.options.*workers = 2;
        spec.options.insts = 20000;
        spec.options.warmup = 2000;
        wl::Workload w = wl::makeWorkload("hmmer_like");
        spec.add(w, sim::makeConfig(sim::Machine::Base), "base");
        spec.add(w, sim::makeConfig(sim::Machine::Pubs), "pubs");
        return spec;
    };
    const std::string plain = bench::runSweep(buildSpec()).statsJson();

    std::filesystem::create_directory(dir);
    bench::SweepSpec spec = buildSpec();
    spec.options.progress = true;
    spec.options.progressJson = dir + "/progress.json";
    spec.options.traceEvents = dir + "/trace.json";
    prof::reset();
    prof::enable(); // what parseRunOptions does for --trace-events
    const std::string observed = bench::runSweep(spec).statsJson();
    prof::disable();
    prof::reset();
    EXPECT_EQ(plain, observed);

    std::ifstream in(spec.options.progressJson);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    json::Value progress;
    std::string error;
    ASSERT_TRUE(json::parse(text, progress, error)) << error;
    EXPECT_EQ(progress.numberOr("total_runs", 0), 2.0);
    EXPECT_EQ(progress.numberOr("done", 0), 2.0);
    EXPECT_EQ(progress.find("active"), nullptr);
    std::filesystem::remove_all(dir);
}

TEST(ObservabilityPlane, SweepStatsJsonIdenticalWithPlaneOnAndOff)
{
    expectPlaneChangesNoByte(&bench::RunOptions::jobs, "obs_plane_jobs_dir");
}

TEST(ObservabilityPlane, ProcSweepStatsJsonIdenticalWithPlaneOnAndOff)
{
    expectPlaneChangesNoByte(&bench::RunOptions::procs,
                             "obs_plane_procs_dir");
}

} // namespace
} // namespace pubs
