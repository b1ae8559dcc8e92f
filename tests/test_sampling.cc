/**
 * @file
 * Sampled-simulation tests: the confidence-interval estimator against
 * closed-form values (including the degenerate single-window and
 * zero-variance cases), plan validation, and determinism of the sampled
 * driver — repeated runs and checkpoint-cache-served runs must stitch
 * bit-identical results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

TEST(MeanCi, MatchesClosedFormSmallSample)
{
    // xs = {1, 2, 3, 4}: mean 2.5, s^2 = 5/3, se = sqrt(5/12),
    // t_{0.975,3} = 3.182.
    sim::MeanCi ci = sim::meanCi({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(ci.n, 4u);
    EXPECT_DOUBLE_EQ(ci.mean, 2.5);
    EXPECT_NEAR(ci.halfWidth, 3.182 * std::sqrt(5.0 / 12.0), 1e-12);
}

TEST(MeanCi, MatchesClosedFormTwoSamples)
{
    // xs = {10, 20}: mean 15, s^2 = 50, se = 5, t_{0.975,1} = 12.706.
    sim::MeanCi ci = sim::meanCi({10.0, 20.0});
    EXPECT_EQ(ci.n, 2u);
    EXPECT_DOUBLE_EQ(ci.mean, 15.0);
    EXPECT_NEAR(ci.halfWidth, 12.706 * 5.0, 1e-9);
}

TEST(MeanCi, LargeSampleUsesNormalQuantile)
{
    // 40 alternating values 0/2: mean 1, s^2 = 40/39 (unbiased),
    // df = 39 > 30 so the quantile is 1.96.
    std::vector<double> xs(40);
    for (size_t i = 0; i < xs.size(); ++i)
        xs[i] = (i % 2) ? 2.0 : 0.0;
    sim::MeanCi ci = sim::meanCi(xs);
    EXPECT_DOUBLE_EQ(ci.mean, 1.0);
    EXPECT_NEAR(ci.halfWidth, 1.96 * std::sqrt((40.0 / 39.0) / 40.0),
                1e-12);
}

TEST(MeanCi, SingleWindowCarriesNoSpread)
{
    sim::MeanCi ci = sim::meanCi({3.25});
    EXPECT_EQ(ci.n, 1u);
    EXPECT_DOUBLE_EQ(ci.mean, 3.25);
    EXPECT_EQ(ci.halfWidth, 0.0);
}

TEST(MeanCi, ZeroVarianceIsExactlyZero)
{
    sim::MeanCi ci = sim::meanCi({2.0, 2.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(ci.mean, 2.0);
    EXPECT_EQ(ci.halfWidth, 0.0); // exactly, not merely small
}

TEST(MeanCi, EmptyIsAllZero)
{
    sim::MeanCi ci = sim::meanCi({});
    EXPECT_EQ(ci.n, 0u);
    EXPECT_EQ(ci.mean, 0.0);
    EXPECT_EQ(ci.halfWidth, 0.0);
}

TEST(SamplePlan, ValidationRejectsDegeneratePlans)
{
    sim::SamplePlan disabled;
    disabled.validate(); // windows == 0 is fine: sampling off

    sim::SamplePlan noMeasure;
    noMeasure.windows = 4;
    noMeasure.periodInsts = 1000;
    EXPECT_THROW(noMeasure.validate(), ConfigError);

    sim::SamplePlan noPeriod;
    noPeriod.windows = 4;
    noPeriod.measureInsts = 1000;
    EXPECT_THROW(noPeriod.validate(), ConfigError);

    sim::SamplePlan oneWindow; // a single window needs no period
    oneWindow.windows = 1;
    oneWindow.measureInsts = 1000;
    oneWindow.validate();
}

sim::SamplePlan
smallPlan()
{
    sim::SamplePlan plan;
    plan.windows = 4;
    plan.warmupInsts = 500;
    plan.measureInsts = 2000;
    plan.periodInsts = 6000;
    return plan;
}

TEST(SimulateSampled, ResultIsStitchedAndAnnotated)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    sim::SamplePlan plan = smallPlan();

    sim::RunResult r =
        sim::simulateSampled(params, w.program, plan, nullptr, "pubs");
    EXPECT_TRUE(r.sampled);
    EXPECT_EQ(r.windows, plan.windows);
    EXPECT_EQ(r.skippedInsts,
              (uint64_t)(plan.windows - 1) * plan.periodInsts);
    // Pooled counters cover every measured window.
    EXPECT_EQ(r.pipeline.committed,
              (uint64_t)plan.windows * plan.measureInsts);
    EXPECT_GT(r.pipeline.ipc(), 0.0);
    EXPECT_GE(r.ipcCi95, 0.0);
}

TEST(SimulateSampled, RepeatedRunsAreBitIdentical)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    sim::SamplePlan plan = smallPlan();

    sim::RunResult a =
        sim::simulateSampled(params, w.program, plan, nullptr, "pubs");
    sim::RunResult b =
        sim::simulateSampled(params, w.program, plan, nullptr, "pubs");
    EXPECT_EQ(a.pipeline.committed, b.pipeline.committed);
    EXPECT_EQ(a.pipeline.cycles, b.pipeline.cycles);
    EXPECT_EQ(a.pipeline.ipc(), b.pipeline.ipc());
    EXPECT_EQ(a.pipeline.branchMpki(), b.pipeline.branchMpki());
    EXPECT_EQ(a.pipeline.llcMpki(), b.pipeline.llcMpki());
    EXPECT_EQ(a.ipcCi95, b.ipcCi95);
    EXPECT_EQ(a.branchMpkiCi95, b.branchMpkiCi95);
    EXPECT_EQ(a.llcMpkiCi95, b.llcMpkiCi95);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.skippedInsts, b.skippedInsts);
}

TEST(SimulateSampled, CheckpointCacheDoesNotChangeResults)
{
    std::string dir = (std::filesystem::temp_directory_path() /
                       "pubs_test_sampling_cache")
                          .string();
    std::filesystem::remove_all(dir);

    wl::Workload w = wl::makeWorkload("mcf_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    sim::SamplePlan plan = smallPlan();

    sim::RunResult bare =
        sim::simulateSampled(params, w.program, plan, nullptr, "pubs");
    sim::CheckpointStore store(dir);
    // First cached run populates the store, second is served from it;
    // all three must agree bit-for-bit.
    sim::RunResult cold =
        sim::simulateSampled(params, w.program, plan, &store, "pubs");
    EXPECT_FALSE(std::filesystem::is_empty(dir));
    sim::RunResult warm =
        sim::simulateSampled(params, w.program, plan, &store, "pubs");

    for (const sim::RunResult *r : {&cold, &warm}) {
        EXPECT_EQ(r->pipeline.committed, bare.pipeline.committed);
        EXPECT_EQ(r->pipeline.cycles, bare.pipeline.cycles);
        EXPECT_EQ(r->pipeline.ipc(), bare.pipeline.ipc());
        EXPECT_EQ(r->pipeline.branchMpki(), bare.pipeline.branchMpki());
        EXPECT_EQ(r->pipeline.llcMpki(), bare.pipeline.llcMpki());
        EXPECT_EQ(r->ipcCi95, bare.ipcCi95);
        EXPECT_EQ(r->windows, bare.windows);
    }
    std::filesystem::remove_all(dir);
}

TEST(SimulateSampled, SingleWindowFromResetMatchesStraightRun)
{
    // One window starting at reset is exactly a straight run with the
    // same budgets, so the stitched result must reproduce it.
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Base);
    sim::SamplePlan plan;
    plan.windows = 1;
    plan.warmupInsts = 1000;
    plan.measureInsts = 5000;

    sim::RunResult sampled =
        sim::simulateSampled(params, w.program, plan, nullptr, "base");
    sim::RunResult straight =
        sim::simulate(params, w.program, 1000, 5000);
    EXPECT_EQ(sampled.pipeline.committed, straight.pipeline.committed);
    EXPECT_EQ(sampled.pipeline.cycles, straight.pipeline.cycles);
    EXPECT_EQ(sampled.pipeline.ipc(), straight.pipeline.ipc());
    EXPECT_EQ(sampled.pipeline.branchMpki(), straight.pipeline.branchMpki());
    EXPECT_EQ(sampled.pipeline.llcMpki(), straight.pipeline.llcMpki());
    EXPECT_EQ(sampled.ipcCi95, 0.0); // no spread from one window
}

} // namespace
} // namespace pubs
