/**
 * @file
 * Regression tests for the sweep engine's determinism contract: the
 * same SweepSpec must produce bit-identical results at every job
 * count — results land in pre-assigned slots, each run gets its own
 * seeded RNG, and the aggregated JSON excludes host-clock fields.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bench_util.hh"
#include "sim/config.hh"
#include "sim/parallel_for.hh"
#include "workloads/suite.hh"

namespace pubs::bench
{
namespace
{

/**
 * Small mixed batch: 3 workloads x 2 machines plus one bad config;
 * @p sampleWindows > 0 samples every run (contiguous 7000-inst period).
 */
SweepSpec
makeSpec(unsigned jobs, unsigned sampleWindows = 0)
{
    SweepSpec spec;
    spec.options.jobs = jobs;
    spec.options.warmup = 2000;
    spec.options.insts = 15000;
    spec.options.sampleWindows = sampleWindows;
    spec.options.samplePeriod = sampleWindows ? 7000 : 0;
    spec.verbose = false;
    for (const char *name : {"sjeng_like", "hmmer_like", "mcf_like"}) {
        wl::Workload w = wl::makeWorkload(name);
        spec.add(w, sim::makeConfig(sim::Machine::Base), "base");
        spec.add(std::move(w), sim::makeConfig(sim::Machine::Pubs), "pubs");
    }
    // A config the simulator rejects: PUBS needs the random IQ. The
    // skip row must also aggregate deterministically.
    cpu::CoreParams bad = sim::makeConfig(sim::Machine::Pubs);
    bad.iqKind = iq::IqKind::Shifting;
    spec.add(wl::makeWorkload("hmmer_like"), bad, "bad");
    return spec;
}

void
expectIdenticalRows(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        const sim::RunResult &ra = a.rows[i].result;
        const sim::RunResult &rb = b.rows[i].result;
        EXPECT_EQ(a.rows[i].ok(), b.rows[i].ok());
        EXPECT_EQ(a.rows[i].error, b.rows[i].error);
        EXPECT_EQ(a.rows[i].errorKind, b.rows[i].errorKind);
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.machine, rb.machine);
        EXPECT_EQ(ra.instructions, rb.instructions);
        EXPECT_EQ(ra.cycles, rb.cycles);
        // Derived doubles come from identical integer counters, so
        // they must be bit-equal, not merely close.
        EXPECT_EQ(ra.ipc, rb.ipc);
        EXPECT_EQ(ra.branchMpki, rb.branchMpki);
        EXPECT_EQ(ra.llcMpki, rb.llcMpki);
        EXPECT_EQ(ra.avgMisspecPenalty, rb.avgMisspecPenalty);
        EXPECT_EQ(ra.avgIqWait, rb.avgIqWait);
        EXPECT_EQ(ra.unconfidentBranchRate, rb.unconfidentBranchRate);
        EXPECT_EQ(ra.pubsEnabledFraction, rb.pubsEnabledFraction);
        EXPECT_EQ(ra.priorityStallCycles, rb.priorityStallCycles);
    }
}

TEST(SweepDeterminism, IdenticalAcrossJobCounts)
{
    std::vector<unsigned> jobCounts{1, 2, sim::hardwareThreads()};

    SweepResult reference = runSweep(makeSpec(jobCounts[0]));
    ASSERT_EQ(reference.rows.size(), 7u);
    EXPECT_EQ(reference.failed(), 1u);
    EXPECT_FALSE(reference.ok(6));
    EXPECT_EQ(reference.rows[6].errorKind, "config");
    std::string referenceJson = reference.statsJson();
    EXPECT_FALSE(referenceJson.empty());

    for (size_t j = 1; j < jobCounts.size(); ++j) {
        SCOPED_TRACE("jobs=" + std::to_string(jobCounts[j]));
        SweepResult run = runSweep(makeSpec(jobCounts[j]));
        expectIdenticalRows(reference, run);
        // Byte-identical aggregated JSON is the contract the CI
        // determinism check and the paper figures both rely on.
        EXPECT_EQ(run.statsJson(), referenceJson);
    }
}

TEST(SweepDeterminism, RepeatedRunIsIdentical)
{
    SweepResult first = runSweep(makeSpec(2));
    SweepResult second = runSweep(makeSpec(2));
    expectIdenticalRows(first, second);
    EXPECT_EQ(first.statsJson(), second.statsJson());
}

TEST(SweepDeterminism, SampledSweepIdenticalAcrossJobCounts)
{
    SweepResult reference = runSweep(makeSpec(1, 3));
    ASSERT_EQ(reference.rows.size(), 7u);
    EXPECT_EQ(reference.failed(), 1u);
    for (size_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(reference.rows[i].result.sampled) << "row " << i;
        EXPECT_EQ(reference.rows[i].result.windows, 3u) << "row " << i;
    }
    std::string referenceJson = reference.statsJson();
    // Sampled rows must surface their confidence intervals in the JSON.
    EXPECT_NE(referenceJson.find("\"ipc_ci95\""), std::string::npos);
    EXPECT_NE(referenceJson.find("\"sampled\": true"),
              std::string::npos);

    for (unsigned jobs : {2u, sim::hardwareThreads()}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        SweepResult run = runSweep(makeSpec(jobs, 3));
        expectIdenticalRows(reference, run);
        EXPECT_EQ(run.statsJson(), referenceJson);
    }
}

TEST(SweepDeterminism, DisabledSamplingKeepsJsonFreeOfSampledFields)
{
    SweepResult run = runSweep(makeSpec(1));
    std::string json = run.statsJson();
    // The non-sampled output contract: byte-identical to pre-sampling
    // builds, so none of the sampled fields may appear.
    EXPECT_EQ(json.find("\"sampled\""), std::string::npos);
    EXPECT_EQ(json.find("ci95"), std::string::npos);
}

TEST(SweepDeterminism, JsonExcludesHostClockFields)
{
    SweepSpec spec;
    spec.options.jobs = 1;
    spec.options.warmup = 500;
    spec.options.insts = 4000;
    spec.verbose = false;
    spec.add(wl::makeWorkload("hmmer_like"),
             sim::makeConfig(sim::Machine::Base), "base");
    SweepResult run = runSweep(spec);
    std::string json = run.statsJson();
    EXPECT_EQ(json.find("sim_seconds"), std::string::npos);
    EXPECT_EQ(json.find("kips"), std::string::npos);
    EXPECT_NE(json.find("\"instructions\""), std::string::npos);
    EXPECT_NE(json.find("\"machine\": \"base\""), std::string::npos);
}

} // namespace
} // namespace pubs::bench
