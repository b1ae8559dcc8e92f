/**
 * @file
 * Property-style parameterised sweeps over module invariants: hashing,
 * tables, caches, queues, and cross-machine pipeline sanity.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/rng.hh"
#include "emu/emulator.hh"
#include "cpu/pipeline.hh"
#include "iq/random_queue.hh"
#include "mem/cache.hh"
#include "pubs/table.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

// ---------- xorFold properties ----------

class XorFoldWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(XorFoldWidth, StaysWithinWidthForRandomInputs)
{
    unsigned width = GetParam();
    Rng rng(width * 977 + 1);
    for (int i = 0; i < 2000; ++i)
        ASSERT_LE(xorFold(rng.next(), width), mask(width));
}

TEST_P(XorFoldWidth, IsDeterministic)
{
    unsigned width = GetParam();
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        uint64_t v = rng.next();
        ASSERT_EQ(xorFold(v, width), xorFold(v, width));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, XorFoldWidth,
                         ::testing::Values(1u, 2u, 4u, 8u, 13u, 16u, 32u));

// ---------- hashed-table properties ----------

class TableGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(TableGeometry, FullTagsNeverFalselyHit)
{
    auto [sets, ways] = GetParam();
    pubs::KeyScheme scheme{sets, 8, /*fullTags=*/true,
                           pubs::PubsParams::pcBits};
    pubs::HashedTagTable<Pc> table(sets, ways, scheme);
    Rng rng(sets * 31 + ways);
    // Insert a bunch of PCs tagged with themselves, then verify every
    // hit returns the PC that was actually inserted.
    std::vector<Pc> pcs;
    for (int i = 0; i < 500; ++i) {
        Pc pc = (rng.next() & mask(30)) * instBytes;
        bool allocated;
        table.lookupOrAllocate(scheme.keyOf(pc), allocated) = pc;
        pcs.push_back(pc);
    }
    for (Pc pc : pcs) {
        if (Pc *hit = table.lookup(scheme.keyOf(pc))) {
            ASSERT_EQ(*hit, pc);
        }
    }
}

TEST_P(TableGeometry, OccupancyNeverExceedsCapacity)
{
    auto [sets, ways] = GetParam();
    pubs::KeyScheme scheme{sets, 8, false, pubs::PubsParams::pcBits};
    pubs::HashedTagTable<int> table(sets, ways, scheme);
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        bool allocated;
        Pc pc = (rng.next() & mask(24)) * instBytes;
        table.lookupOrAllocate(scheme.keyOf(pc), allocated) = i;
        ASSERT_LE(table.validEntries(), table.capacity());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TableGeometry,
    ::testing::Values(std::pair{16u, 1u}, std::pair{16u, 4u},
                      std::pair{256u, 2u}, std::pair{256u, 4u},
                      std::pair{1024u, 8u}));

// ---------- cache properties ----------

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, RepeatAccessAlwaysHitsUnderLru)
{
    auto [sizeKb, ways] = GetParam();
    mem::MainMemory dram(100, 8, 64);
    mem::CacheParams params;
    params.sizeBytes = sizeKb * 1024;
    params.ways = ways;
    mem::Cache cache(params, &dram);
    Rng rng(sizeKb * 7 + ways);
    // Working set half the cache size: after a warm pass everything
    // must hit regardless of access order.
    unsigned lines = (unsigned)(params.sizeBytes / params.lineBytes / 2);
    Cycle t = 0;
    bool hit;
    for (unsigned i = 0; i < lines; ++i)
        cache.access((Addr)i * 64, false, t += 3, hit);
    t += 100000; // let every in-flight fill land
    for (int i = 0; i < 3000; ++i) {
        Addr addr = (Addr)rng.below(lines) * 64;
        cache.access(addr, false, t += 3, hit);
        ASSERT_TRUE(hit);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::pair{4u, 1u},
                                           std::pair{32u, 8u},
                                           std::pair{64u, 16u}));

// ---------- random-queue properties ----------

TEST(RandomQueueProperty, OccupancyInvariantUnderRandomTraffic)
{
    Rng rng(5);
    iq::RandomQueue q(32, 6, 9);
    std::vector<uint32_t> inQueue;
    uint32_t nextId = 0;
    for (int step = 0; step < 20000; ++step) {
        bool doDispatch = rng.chance(0.55) && inQueue.size() < 32;
        if (doDispatch) {
            bool priority = rng.chance(0.2) && q.canDispatch(true);
            if (priority || q.canDispatch(false)) {
                uint32_t id = nextId++;
                q.dispatch(id, id, priority);
                inQueue.push_back(id);
            }
        } else if (!inQueue.empty()) {
            size_t pick = (size_t)rng.below(inQueue.size());
            q.remove(inQueue[pick]);
            inQueue.erase(inQueue.begin() + (long)pick);
        }
        ASSERT_EQ(q.occupancy(), inQueue.size());
        // Every in-queue id appears exactly once among the slots.
        size_t found = 0;
        for (const auto &slot : q.prioritySlots())
            found += slot.valid;
        ASSERT_EQ(found, inQueue.size());
    }
}

// ---------- pipeline cross-machine properties ----------

struct MachineCase
{
    sim::Machine machine;
    const char *workload;
};

/** "pubs_age_sjeng_like": the case's test-name suffix. */
std::string
caseName(const MachineCase &c)
{
    std::string name = sim::machineName(c.machine);
    for (char &ch : name)
        if (ch == '+')
            ch = '_';
    return name + "_" + c.workload;
}

// Without a printer gtest lists each case with a byte dump of the
// struct: the workload pointer and padding bytes, which move from run
// to run, would end up in the test's name.
void
PrintTo(const MachineCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class MachineSweep : public ::testing::TestWithParam<MachineCase>
{
};

TEST_P(MachineSweep, RunsCleanlyWithSaneMetrics)
{
    const MachineCase &c = GetParam();
    wl::Workload w = wl::makeWorkload(c.workload);
    sim::RunResult r = sim::simulate(sim::makeConfig(c.machine),
                                     w.program, 15000, 50000);
    EXPECT_EQ(r.pipeline.committed, 50000u);
    EXPECT_GT(r.pipeline.ipc(), 0.01);
    EXPECT_LE(r.pipeline.ipc(), 4.0); // bounded by the 4-wide pipeline
    EXPECT_GE(r.pipeline.branchMpki(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MachineSweep,
    ::testing::Values(
        MachineCase{sim::Machine::Base, "sjeng_like"},
        MachineCase{sim::Machine::Pubs, "sjeng_like"},
        MachineCase{sim::Machine::Age, "sjeng_like"},
        MachineCase{sim::Machine::PubsAge, "sjeng_like"},
        MachineCase{sim::Machine::Base, "mcf_like"},
        MachineCase{sim::Machine::Pubs, "mcf_like"},
        MachineCase{sim::Machine::Base, "libquantum_like"},
        MachineCase{sim::Machine::Pubs, "libquantum_like"},
        MachineCase{sim::Machine::PubsAge, "soplex_like"}),
    [](const auto &info) { return caseName(info.param); });

// ---------- size-class properties ----------

class SizeSweep : public ::testing::TestWithParam<cpu::SizeClass>
{
};

TEST_P(SizeSweep, AllMachinesRunAtEverySize)
{
    wl::Workload w = wl::makeWorkload("gobmk_like");
    for (auto machine : {sim::Machine::Base, sim::Machine::Pubs,
                         sim::Machine::PubsAge}) {
        cpu::CoreParams params = sim::makeConfig(machine, GetParam());
        sim::RunResult r = sim::simulate(params, w.program, 10000, 30000);
        EXPECT_GT(r.pipeline.ipc(), 0.0) << sim::machineName(machine);
        EXPECT_LE(r.pipeline.ipc(), (double)params.issueWidth);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SizeSweep,
    ::testing::Values(cpu::SizeClass::Small, cpu::SizeClass::Medium,
                      cpu::SizeClass::Large, cpu::SizeClass::Huge),
    [](const auto &info) {
        return std::string(cpu::sizeClassName(info.param));
    });

// ---------- priority-entry sweep ----------

class PrioritySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PrioritySweep, PubsRunsWithAnyReasonablePartition)
{
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    params.pubs.priorityEntries = GetParam();
    sim::RunResult r = sim::simulate(params, w.program, 10000, 40000);
    EXPECT_GT(r.pipeline.ipc(), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PrioritySweep,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u, 12u, 16u));

// ---------- confidence-width sweep ----------

class ConfWidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ConfWidthSweep, UnconfidentRateGrowsWithWidth)
{
    // Not strictly monotone per-run, but the rate at 8 bits must exceed
    // the rate at 2 bits (Fig. 11's line).
    wl::Workload w = wl::makeWorkload("gobmk_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    params.pubs.confCounterBits = GetParam();
    sim::RunResult r = sim::simulate(params, w.program, 20000, 60000);
    EXPECT_GT(r.unconfidentBranchRate, 0.0);
    EXPECT_LE(r.unconfidentBranchRate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, ConfWidthSweep,
                         ::testing::Values(2u, 4u, 6u, 8u));

TEST(ConfWidthProperty, WiderMeansMoreUnconfident)
{
    wl::Workload w = wl::makeWorkload("bzip2_like");
    auto rateAt = [&w](unsigned bits) {
        cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
        params.pubs.confCounterBits = bits;
        return sim::simulate(params, w.program, 20000, 80000)
            .unconfidentBranchRate;
    };
    EXPECT_GT(rateAt(8), rateAt(2));
}

} // namespace
} // namespace pubs
