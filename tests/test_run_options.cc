/**
 * @file
 * Tests for the run-option table (bench/common/run_options.hh): the
 * precedence flag > env var > default, the generated usage, and the
 * rejections that exit 2 with that usage instead of aborting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/run_options.hh"

namespace pubs::bench
{
namespace
{

/** Set an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** parseRunOptions over @p args, as `bench_test args...`. */
RunOptions
parse(std::vector<std::string> args)
{
    std::string name = "bench_test";
    std::vector<char *> argv{name.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    return parseRunOptions((int)argv.size() - 1, argv.data());
}

TEST(RunOptions, DefaultsWithoutEnvOrFlags)
{
    RunOptions options = parse({});
    EXPECT_EQ(options.insts, 1000000u);
    EXPECT_EQ(options.warmup, 200000u);
    EXPECT_EQ(options.jobs, 0u);
    EXPECT_EQ(options.procs, 0u);
    EXPECT_FALSE(options.resume);
    EXPECT_FALSE(options.progress);
    EXPECT_EQ(options.progressJson, "progress.json");
    EXPECT_TRUE(options.journal.empty());
    EXPECT_TRUE(options.csvDir.empty());
    EXPECT_FALSE(options.samplePlan().enabled());
    EXPECT_EQ(options.procTimeout, 900u);
    EXPECT_EQ(options.procRetries, 5u);
    EXPECT_EQ(options.procBackoffMs, 100u);
    EXPECT_EQ(options.procStale, 30u);
    EXPECT_FALSE(options.faults.any());
}

TEST(RunOptions, FlagBeatsEnvVarWhichBeatsDefault)
{
    EXPECT_EQ(parse({}).jobs, 0u);
    {
        ScopedEnv jobs("PUBS_BENCH_JOBS", "3");
        ScopedEnv journal("PUBS_BENCH_JOURNAL", "env.jnl");
        ScopedEnv progress("PUBS_PROGRESS", "0");
        ScopedEnv timeout("PUBS_PROC_TIMEOUT", "0");
        ScopedEnv retries("PUBS_PROC_RETRIES", "8");
        ScopedEnv backoff("PUBS_PROC_BACKOFF_MS", "1");
        ScopedEnv stale("PUBS_PROC_STALE", "7");
        ScopedEnv fault("PUBS_FAULT", "crash:0.25:7,killafter:12");
        RunOptions fromEnv = parse({});
        EXPECT_EQ(fromEnv.jobs, 3u);
        EXPECT_EQ(fromEnv.journal, "env.jnl");
        EXPECT_FALSE(fromEnv.progress);
        EXPECT_EQ(fromEnv.procTimeout, 0u); // 0 disables the timeout
        EXPECT_EQ(fromEnv.procRetries, 8u);
        EXPECT_EQ(fromEnv.procBackoffMs, 1u);
        EXPECT_EQ(fromEnv.procStale, 7u);
        EXPECT_EQ(fromEnv.faults.crashRate, 0.25);
        EXPECT_EQ(fromEnv.faults.seed, 7u);
        EXPECT_EQ(fromEnv.faults.killAfter, 12u);

        RunOptions fromFlags =
            parse({"--jobs", "5", "--journal", "flag.jnl", "--progress"});
        EXPECT_EQ(fromFlags.jobs, 5u);
        EXPECT_EQ(fromFlags.journal, "flag.jnl");
        EXPECT_TRUE(fromFlags.progress);
    }
    // An empty env var counts as unset.
    ScopedEnv empty("PUBS_BENCH_JOBS", "");
    EXPECT_EQ(parse({}).jobs, 0u);
}

TEST(RunOptions, ProgramRowsShareTheTable)
{
    RunOptions options;
    uint64_t skip = 0;
    std::string name = "cli_test", skipFlag = "--skip", skipValue = "0",
                instsFlag = "--insts", instsValue = "5000";
    char *argv[] = {name.data(), skipFlag.data(), skipValue.data(),
                    instsFlag.data(), instsValue.data(), nullptr};
    parseRunOptions(5, argv, options,
                    {{"--skip", nullptr, OptionType::Number, "skip", &skip},
                     {"--insts", nullptr, OptionType::Count, "insts",
                      &options.insts}});
    EXPECT_EQ(skip, 0u); // a Number may be zero
    EXPECT_EQ(options.insts, 5000u);
}

TEST(RunOptions, SamplePlanSplitsTheBudgets)
{
    RunOptions options =
        parse({"--sample", "4", "--sample-period", "90000"});
    options.insts = 40000;
    options.warmup = 8000;
    sim::SamplePlan plan = options.samplePlan();
    EXPECT_EQ(plan.windows, 4u);
    EXPECT_EQ(plan.measureInsts, 10000u);
    EXPECT_EQ(plan.warmupInsts, 2000u);
    EXPECT_EQ(plan.periodInsts, 90000u);
    options.samplePeriod = 0; // contiguous windows
    EXPECT_EQ(options.samplePlan().periodInsts, 12000u);
}

TEST(RunOptions, UsageListsEveryTableRow)
{
    RunOptions options;
    std::vector<OptionRow> rows = runOptionRows(options);
    std::string usage = optionUsage("bench_test", rows);
    EXPECT_EQ(usage.find("usage: bench_test [options]\n"), 0u);
    for (const OptionRow &row : rows) {
        SCOPED_TRACE(row.flag ? row.flag : row.env);
        if (row.flag) {
            EXPECT_NE(usage.find(std::string("  ") + row.flag),
                      std::string::npos);
        }
        if (row.env) {
            EXPECT_NE(usage.find(std::string("$") + row.env),
                      std::string::npos);
        }
        EXPECT_NE(usage.find(row.help), std::string::npos);
    }
}

TEST(RunOptions, KeepsEveryHarnessSpelling)
{
    // CI, README and perfbench drive the harness by these names.
    const std::pair<const char *, const char *> spellings[] = {
        {"--jobs", "PUBS_BENCH_JOBS"},
        {"--procs", "PUBS_BENCH_PROCS"},
        {"--journal", "PUBS_BENCH_JOURNAL"},
        {"--resume", "PUBS_BENCH_RESUME"},
        {"--trace-events", "PUBS_TRACE_EVENTS"},
        {"--report", "PUBS_BENCH_REPORT"},
        {"--progress", "PUBS_PROGRESS"},
        {"--cpi-stack", "PUBS_CPI_STACK"},
        {"--branch-profile", "PUBS_BRANCH_PROFILE"},
        {"--sample", "PUBS_BENCH_SAMPLE"},
        {"--sample-period", "PUBS_BENCH_SAMPLE_PERIOD"},
        {"--checkpoint-dir", "PUBS_CHECKPOINT_DIR"},
        {"", "PUBS_BENCH_INSTS"},
        {"", "PUBS_BENCH_WARMUP"},
        {"", "PUBS_BENCH_CSV"},
        {"", "PUBS_PROGRESS_JSON"},
        {"", "PUBS_PROC_TIMEOUT"},
        {"", "PUBS_PROC_RETRIES"},
        {"", "PUBS_PROC_BACKOFF_MS"},
        {"", "PUBS_PROC_STALE"},
        {"", "PUBS_FAULT"},
    };
    RunOptions options;
    std::vector<OptionRow> rows = runOptionRows(options);
    for (auto [flag, env] : spellings) {
        auto spelled = [&](const OptionRow &row) {
            return flag == std::string(row.flag ? row.flag : "") &&
                   env == std::string(row.env);
        };
        EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), spelled))
            << flag << " " << env;
    }
}

TEST(RunOptions, HelpExitsZero)
{
    EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(RunOptions, MissingValueExitsTwoWithUsage)
{
    EXPECT_EXIT(parse({"--journal"}), ::testing::ExitedWithCode(2),
                "--journal needs a value.*usage: bench_test");
}

TEST(RunOptions, NonNumericCountExitsTwoWithUsage)
{
    EXPECT_EXIT(parse({"--jobs", "abc"}), ::testing::ExitedWithCode(2),
                "--jobs wants a positive integer, got 'abc'.*usage:");
    EXPECT_EXIT(parse({"--jobs", "4x"}), ::testing::ExitedWithCode(2),
                "got '4x'.*usage:");
    EXPECT_EXIT(parse({"--sample", "-1"}), ::testing::ExitedWithCode(2),
                "got '-1'.*usage:");
    EXPECT_EXIT(parse({"--procs", "99999999999"}),
                ::testing::ExitedWithCode(2), "got '99999999999'.*usage:");
}

TEST(RunOptions, ZeroCountExitsTwoWithUsage)
{
    EXPECT_EXIT(parse({"--jobs", "0"}), ::testing::ExitedWithCode(2),
                "--jobs wants a positive integer, got '0'.*usage:");
    EXPECT_EXIT(parse({"--sample-period", "0"}),
                ::testing::ExitedWithCode(2), "got '0'.*usage:");
}

TEST(RunOptions, MalformedEnvVarExitsTwoWithUsage)
{
    ScopedEnv insts("PUBS_BENCH_INSTS", "12k");
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                "\\$PUBS_BENCH_INSTS wants a positive integer, "
                "got '12k'.*usage:");
}

TEST(RunOptions, MalformedProcPoolEnvVarExitsTwoWithUsage)
{
    // None may fall back to its default: a sweep under a misspelt fault
    // plan would inject nothing and still pass.
    const std::pair<const char *, const char *> malformed[] = {
        {"PUBS_PROC_TIMEOUT", "abc"},   {"PUBS_PROC_TIMEOUT", "-1"},
        {"PUBS_PROC_RETRIES", "abc"},   {"PUBS_PROC_RETRIES", "0"},
        {"PUBS_PROC_BACKOFF_MS", "1.5"}, {"PUBS_PROC_STALE", "30s"},
        {"PUBS_FAULT", "bogus"},        {"PUBS_FAULT", "crash:2"},
    };
    for (auto [name, value] : malformed) {
        SCOPED_TRACE(std::string(name) + "=" + value);
        ScopedEnv env(name, value);
        EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                    std::string("\\$") + name + ".*usage:");
    }
}

TEST(RunOptions, ResumeWithoutJournalExitsTwoWithUsage)
{
    EXPECT_EXIT(parse({"--resume"}), ::testing::ExitedWithCode(2),
                "--resume needs --journal.*usage:");
    ScopedEnv resume("PUBS_BENCH_RESUME", "1");
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                "--resume needs --journal.*usage:");
    EXPECT_TRUE(parse({"--journal", "x.jnl"}).resume);
}

TEST(RunOptions, SamplingSettingsWithoutSampleExitTwoWithUsage)
{
    // Without --sample no run reads them: the store would never fill.
    EXPECT_EXIT(parse({"--checkpoint-dir", "d"}),
                ::testing::ExitedWithCode(2),
                "--checkpoint-dir needs --sample.*usage:");
    EXPECT_EXIT(parse({"--sample-period", "1000"}),
                ::testing::ExitedWithCode(2),
                "--sample-period needs --sample.*usage:");
    {
        ScopedEnv dir("PUBS_CHECKPOINT_DIR", "d");
        EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                    "--checkpoint-dir needs --sample.*usage:");
        EXPECT_EQ(parse({"--sample", "2"}).checkpointDir, "d");
    }
    ScopedEnv sample("PUBS_BENCH_SAMPLE", "3");
    RunOptions options = parse({"--sample-period", "1000"});
    EXPECT_EQ(options.samplePeriod, 1000u);
}

TEST(RunOptions, UnknownFlagExitsTwoWithUsage)
{
    EXPECT_EXIT(parse({"--jbos", "4"}), ::testing::ExitedWithCode(2),
                "unknown option '--jbos'.*usage:");
}

} // namespace
} // namespace pubs::bench
