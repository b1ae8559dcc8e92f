/**
 * @file
 * The evaluation's run set (RunSet, bench/common/bench_util.hh): it
 * deduplicates on the workload name and the machine key, a shared run
 * keeps its first label, a run from an earlier step is never simulated
 * again, and one progress meter counts every step.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "common/atomic_file.hh"
#include "common/bench_util.hh"
#include "json.hh"
#include "param_rows.hh"
#include "sim/config.hh"

namespace pubs::bench
{
namespace
{

RunOptions
tinyBudgets()
{
    RunOptions options;
    options.jobs = 1;
    options.warmup = 500;
    options.insts = 2000;
    return options;
}

TEST(RunSet, TheSameRunAddedTwiceIsOneRun)
{
    RunSet runs(tinyBudgets());
    wl::Workload sjeng = wl::makeWorkload("sjeng_like");
    cpu::CoreParams pubs = sim::makeConfig(sim::Machine::Pubs);
    RunHandle first = runs.add(sjeng, pubs, "pubs");
    EXPECT_EQ(runs.add(sjeng, pubs, "pubs"), first);
    RunHandle hmmer = runs.add(wl::makeWorkload("hmmer_like"), pubs, "pubs");
    RunHandle base =
        runs.add(sjeng, sim::makeConfig(sim::Machine::Base), "pubs");
    EXPECT_EQ((std::set<RunHandle>{first, hmmer, base}).size(), 3u);
    EXPECT_EQ(runs.run(""), 3u);
}

TEST(RunSet, EveryKeyedParameterMakesANewRun)
{
    RunSet runs(tinyBudgets());
    wl::Workload sjeng = wl::makeWorkload("sjeng_like");
    const cpu::CoreParams base = sim::makeConfig(sim::Machine::Pubs);
    RunHandle baseRun = runs.add(sjeng, base, "pubs");
    std::set<RunHandle> keyed;
    for (const cpu::ParamRow &row : cpu::paramTable()) {
        SCOPED_TRACE(row.name);
        cpu::CoreParams changed = base;
        test::perturb(row, changed);
        RunHandle run = runs.add(sjeng, changed, "pubs");
        if (row.cls == cpu::ParamClass::Observational) {
            EXPECT_EQ(run, baseRun); // the heartbeat settings
        } else {
            EXPECT_NE(run, baseRun);
            EXPECT_TRUE(keyed.insert(run).second);
        }
    }
    EXPECT_EQ(keyed.count(baseRun), 0u);
}

TEST(RunSet, ASharedRunKeepsItsFirstLabel)
{
    RunSet runs(tinyBudgets());
    wl::Workload hmmer = wl::makeWorkload("hmmer_like");
    cpu::CoreParams base = sim::makeConfig(sim::Machine::Base);
    RunHandle first = runs.add(hmmer, base, "base");
    EXPECT_EQ(runs.add(hmmer, base, "base@medium"), first);
    EXPECT_EQ(runs.run(""), 1u);
    ASSERT_TRUE(runs.ok(first));
    EXPECT_EQ(runs.at(first).machine, "base");
}

TEST(RunSet, ALaterStepReusesEarlierRuns)
{
    RunSet runs(tinyBudgets());
    wl::Workload hmmer = wl::makeWorkload("hmmer_like");
    cpu::CoreParams base = sim::makeConfig(sim::Machine::Base);
    RunHandle first = runs.add(hmmer, base, "base");
    EXPECT_EQ(runs.run(""), 1u);
    uint64_t cycles = runs.at(first).pipeline.cycles;

    // The second step asks for the first step's run and a new one: only
    // the new one is simulated.
    EXPECT_EQ(runs.add(hmmer, base, "base@medium"), first);
    RunHandle second =
        runs.add(hmmer, sim::makeConfig(sim::Machine::Pubs), "pubs");
    EXPECT_EQ(runs.run(""), 1u);
    EXPECT_EQ(runs.at(first).pipeline.cycles, cycles);
    ASSERT_TRUE(runs.ok(second));
    EXPECT_EQ(runs.at(second).machine, "pubs");
    EXPECT_EQ(runs.run(""), 0u) << "a step with no new runs sweeps nothing";
}

TEST(RunSet, OneProgressMeterCountsEveryStep)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "pubs_run_set_progress.json")
            .string();
    std::remove(path.c_str());
    {
        RunOptions options = tinyBudgets();
        options.progress = true;
        options.progressJson = path;
        RunSet runs(options);
        wl::Workload hmmer = wl::makeWorkload("hmmer_like");
        runs.add(hmmer, sim::makeConfig(sim::Machine::Base), "base");
        runs.add(hmmer, sim::makeConfig(sim::Machine::Pubs), "pubs");
        EXPECT_EQ(runs.run(""), 2u);
        runs.add(wl::makeWorkload("sjeng_like"),
                 sim::makeConfig(sim::Machine::Base), "base");
        EXPECT_EQ(runs.run(""), 1u);
    } // the set's end writes the meter's final document

    std::string text;
    ASSERT_TRUE(readWholeFile(path, text));
    json::Value progress;
    std::string error;
    ASSERT_TRUE(json::parse(text, progress, error)) << error;
    EXPECT_EQ(progress.numberOr("total_runs", 0), 3.0);
    EXPECT_EQ(progress.numberOr("done", 0), 3.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace pubs::bench
