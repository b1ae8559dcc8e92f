/**
 * @file
 * Tests for the benchmark-harness utilities (table formatting, CSV
 * emission, percentage and mean formatting, environment-driven budgets,
 * suite sweeps that skip failing runs).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/bench_util.hh"
#include "sim/config.hh"

namespace pubs::bench
{
namespace
{

/** Options from the environment alone, as a driver without flags. */
RunOptions
optionsFromEnv()
{
    char name[] = "bench_util_test";
    char *argv[] = {name, nullptr};
    return parseRunOptions(1, argv);
}

TEST(BenchUtil, PctFormatsRatios)
{
    EXPECT_EQ(pct(1.078), "+7.8%");
    EXPECT_EQ(pct(0.95), "-5.0%");
    EXPECT_EQ(pct(1.0), "+0.0%");
}

TEST(BenchUtil, NumFormatsDigits)
{
    EXPECT_EQ(num(3.14159, 2), "3.14");
    EXPECT_EQ(num(2.0, 0), "2");
}

TEST(BenchUtil, TextTableAligns)
{
    TextTable table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long_name", "2"});
    std::string text = table.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("long_name"), std::string::npos);
    // Every data line must appear after the separator line.
    EXPECT_LT(text.find("----"), text.find("long_name"));
}

TEST(BenchUtil, TextTablePadsShortRows)
{
    TextTable table({"a", "b", "c"});
    table.addRow({"only"});
    EXPECT_EQ(table.rows()[0].size(), 3u);
}

TEST(BenchUtil, CsvEmission)
{
    std::string dir =
        (std::filesystem::temp_directory_path() / "pubs_csv_test")
            .string();
    std::filesystem::create_directories(dir);
    setenv("PUBS_BENCH_CSV", dir.c_str(), 1);
    RunOptions options = optionsFromEnv();
    unsetenv("PUBS_BENCH_CSV");

    TextTable table({"x", "y"});
    table.addRow({"1", "2"});
    EXPECT_TRUE(maybeWriteCsv(options, "unit_test", table));

    std::ifstream in(dir + "/unit_test.csv");
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");

    std::filesystem::remove_all(dir);
}

TEST(BenchUtil, CsvDisabledWithoutEnv)
{
    unsetenv("PUBS_BENCH_CSV");
    TextTable table({"x"});
    EXPECT_FALSE(maybeWriteCsv(optionsFromEnv(), "unit_test", table));
}

TEST(BenchUtil, BudgetsReadEnvironment)
{
    setenv("PUBS_BENCH_INSTS", "12345", 1);
    setenv("PUBS_BENCH_WARMUP", "678", 1);
    RunOptions options = optionsFromEnv();
    EXPECT_EQ(options.insts, 12345u);
    EXPECT_EQ(options.warmup, 678u);
    unsetenv("PUBS_BENCH_INSTS");
    unsetenv("PUBS_BENCH_WARMUP");
    options = optionsFromEnv();
    EXPECT_EQ(options.insts, 1000000u);
    EXPECT_EQ(options.warmup, 200000u);
}

TEST(BenchUtil, GeoMeanRatio)
{
    EXPECT_NEAR(geometricMean({1.1, 1.1, 1.1}), 1.1, 1e-12);
}

TEST(BenchUtil, MeanCellPrintsNaForAnEmptySet)
{
    EXPECT_EQ(meanCell({1.1, 1.1}), "+10.0%");
    EXPECT_EQ(meanCell({1.0, 1.2}, Mean::Arithmetic), "+10.0%");
    EXPECT_EQ(meanCell({0.5, 0.7}, Mean::Arithmetic, 2), "0.60");
    EXPECT_EQ(meanCell({}), "n/a");
    EXPECT_EQ(meanCell({}, Mean::Arithmetic, 2), "n/a");
}

/** One sweep of every workload in @p suite on @p params. */
SweepResult
sweepSuite(const std::vector<wl::Workload> &suite,
           const cpu::CoreParams &params, const RunOptions &options)
{
    SweepSpec spec(options);
    spec.verbose = false;
    for (const auto &workload : suite)
        spec.add(workload, params, "");
    return runSweep(spec);
}

TEST(BenchUtil, RunSuiteSkipsFailingConfigurations)
{
    // An impossible configuration makes every workload throw
    // ConfigError; the sweep must report each failure and keep going
    // with index-aligned results rather than aborting.
    std::vector<wl::Workload> suite;
    suite.push_back(wl::makeWorkload("hmmer_like"));
    suite.push_back(wl::makeWorkload("sjeng_like"));

    cpu::CoreParams bad = sim::makeConfig(sim::Machine::Pubs);
    bad.iqKind = iq::IqKind::Shifting; // PUBS needs the random queue

    SweepResult run = sweepSuite(suite, bad, RunOptions{});
    ASSERT_EQ(run.rows.size(), suite.size());
    EXPECT_EQ(run.failed(), suite.size());
    EXPECT_FALSE(run.ok(0));
    EXPECT_EQ(run.at(0).workload, "hmmer_like");
    EXPECT_NE(run.rows[1].error.find("invalid core configuration"),
              std::string::npos);
}

TEST(BenchUtil, SweepRecordsSkippedConfigsInCsv)
{
    // A failed run must leave a machine-readable skip row, not just a
    // stderr warning: skipped.csv gets (workload, machine, kind,
    // failing phase, error) while simspeed.csv only collects the runs
    // that succeeded.
    std::string dir =
        (std::filesystem::temp_directory_path() / "pubs_skip_test")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepSpec spec;
    spec.options.csvDir = dir;
    spec.options.jobs = 1;
    spec.options.warmup = 500;
    spec.options.insts = 4000;
    spec.verbose = false;
    spec.add(wl::makeWorkload("hmmer_like"),
             sim::makeConfig(sim::Machine::Base), "base");
    cpu::CoreParams bad = sim::makeConfig(sim::Machine::Pubs);
    bad.iqKind = iq::IqKind::Shifting; // PUBS needs the random queue
    spec.add(wl::makeWorkload("sjeng_like"), bad, "bad");

    SweepResult run = runSweep(spec);
    EXPECT_EQ(run.failed(), 1u);

    std::ifstream skipped(dir + "/skipped.csv");
    ASSERT_TRUE(skipped.good());
    std::string line;
    std::getline(skipped, line);
    EXPECT_EQ(line, "workload,machine,error_kind,phase,error");
    std::getline(skipped, line);
    EXPECT_NE(line.find("sjeng_like,bad,config,"), std::string::npos);
    EXPECT_NE(line.find("invalid core configuration"),
              std::string::npos);
    EXPECT_FALSE(std::getline(skipped, line)); // exactly one skip row

    // The good run went to simspeed.csv, the skipped one did not.
    std::ifstream speed(dir + "/simspeed.csv");
    ASSERT_TRUE(speed.good());
    std::string all((std::istreambuf_iterator<char>(speed)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("hmmer_like"), std::string::npos);
    EXPECT_EQ(all.find("sjeng_like"), std::string::npos);

    // Pool telemetry lands alongside.
    std::ifstream poolCsv(dir + "/sweep_pool.csv");
    ASSERT_TRUE(poolCsv.good());
    std::getline(poolCsv, line);
    EXPECT_EQ(line,
              "runs,failed,jobs,wall_seconds,busy_seconds,utilization,"
              "launches,crashes,timeouts,stale_kills,corrupt_frames,"
              "retries,skips,journal_served");
    std::getline(poolCsv, line);
    EXPECT_NE(line.find("2,1,1,"), std::string::npos);

    std::filesystem::remove_all(dir);
}

TEST(BenchUtil, RunSuiteMixedFailurePreservesGoodResults)
{
    std::vector<wl::Workload> suite;
    suite.push_back(wl::makeWorkload("hmmer_like"));

    cpu::CoreParams good = sim::makeConfig(sim::Machine::Base);
    RunOptions options;
    options.insts = 20000;
    options.warmup = 1000;
    SweepResult run = sweepSuite(suite, good, options);
    ASSERT_EQ(run.rows.size(), 1u);
    EXPECT_EQ(run.failed(), 0u);
    EXPECT_TRUE(run.ok(0));
    EXPECT_GT(run.at(0).ipc, 0.0);
}

} // namespace
} // namespace pubs::bench
