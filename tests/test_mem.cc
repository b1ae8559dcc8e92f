/**
 * @file
 * Memory-hierarchy tests: cache hit/miss/LRU/writeback behaviour, MSHR
 * merging, main-memory bandwidth, the stream prefetcher, and the
 * composed MemorySystem.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/stream_prefetcher.hh"

namespace pubs::mem
{
namespace
{

CacheParams
smallCache(unsigned sizeKb = 1, unsigned ways = 2)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = sizeKb * 1024;
    p.ways = ways;
    p.lineBytes = 64;
    p.hitLatency = 2;
    p.mshrs = 4;
    return p;
}

TEST(CacheTest, ColdMissThenHit)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    bool hit = true;
    Cycle ready = cache.access(0x1000, false, 10, hit);
    EXPECT_FALSE(hit);
    EXPECT_GE(ready, 110u); // at least the memory latency
    ready = cache.access(0x1008, false, ready, hit); // same line
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.demandAccesses(), 2u);
    EXPECT_EQ(cache.demandMisses(), 1u);
}

TEST(CacheTest, HitLatency)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    bool hit;
    cache.access(0x1000, false, 0, hit);
    Cycle ready = cache.access(0x1000, false, 1000, hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(ready, 1002u);
}

TEST(CacheTest, LruEviction)
{
    // 1 KB, 2-way, 64 B lines: 8 sets. Three lines in one set.
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    Addr a = 0x0000, b = a + 8 * 64, c = a + 16 * 64;
    bool hit;
    cache.access(a, false, 0, hit);
    cache.access(b, false, 1000, hit);
    cache.access(a, false, 2000, hit); // a is MRU
    cache.access(c, false, 3000, hit); // evicts b
    cache.access(a, false, 4000, hit);
    EXPECT_TRUE(hit);
    cache.access(b, false, 5000, hit);
    EXPECT_FALSE(hit);
}

TEST(CacheTest, DirtyEvictionCountsWriteback)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    Addr a = 0x0000, b = a + 8 * 64, c = a + 16 * 64;
    bool hit;
    cache.access(a, true, 0, hit); // write-allocate, dirty
    cache.access(b, false, 1000, hit);
    cache.access(c, false, 2000, hit); // evicts dirty a
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(CacheTest, MshrMergesOutstandingMisses)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    bool hit;
    Cycle r1 = cache.access(0x1000, false, 10, hit);
    // Second access to the same line while the miss is outstanding.
    Cycle r2 = cache.access(0x1010, false, 11, hit);
    EXPECT_FALSE(hit); // counts as a merge, not an L1 hit
    EXPECT_EQ(r2, r1); // data arrives with the same fill
    EXPECT_EQ(cache.mshrHits(), 1u);
    EXPECT_EQ(dram.requests(), 1u);
    // Once the fill lands, accesses are plain hits again.
    cache.access(0x1020, false, r1 + 1, hit);
    EXPECT_TRUE(hit);
}

TEST(CacheTest, MshrExhaustionDelaysRequests)
{
    MainMemory dram(100, 64, 64); // high bandwidth: no channel skew
    Cache cache(smallCache(), &dram);
    bool hit;
    Cycle last = 0;
    // 4 MSHRs; the 5th concurrent miss must wait for a retirement.
    for (int i = 0; i < 5; ++i)
        last = cache.access(0x10000 + (Addr)i * 4096, false, 0, hit);
    EXPECT_GT(last, 200u); // serialised behind an earlier fill
}

TEST(CacheTest, PrefetchInstallsWithoutDemandStats)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    cache.installPrefetch(0x2000, 0);
    EXPECT_EQ(cache.demandAccesses(), 0u);
    EXPECT_EQ(cache.demandMisses(), 0u);
    EXPECT_EQ(cache.prefetchFills(), 1u);
    EXPECT_TRUE(cache.contains(0x2000));
    bool hit;
    cache.access(0x2000, false, 1000, hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.usefulPrefetches(), 1u);
}

TEST(CacheTest, PrefetchToPresentLineIsIdempotent)
{
    MainMemory dram(100, 8, 64);
    Cache cache(smallCache(), &dram);
    bool hit;
    cache.access(0x2000, false, 0, hit);
    cache.installPrefetch(0x2000, 10);
    EXPECT_EQ(cache.prefetchFills(), 0u);
}

TEST(MainMemoryTest, BandwidthSerialisesBursts)
{
    MainMemory dram(300, 8, 64); // 8 cycles of channel time per line
    Cycle r1 = dram.fill(0x0, 0, false);
    Cycle r2 = dram.fill(0x40, 0, false);
    Cycle r3 = dram.fill(0x80, 0, false);
    EXPECT_EQ(r1, 300u);
    EXPECT_EQ(r2, 308u);
    EXPECT_EQ(r3, 316u);
}

TEST(StreamPrefetcherTest, DetectsAscendingStream)
{
    MainMemory dram(100, 8, 64);
    CacheParams l2p = smallCache(64, 4);
    Cache l2(l2p, &dram);
    StreamPrefetcherParams params;
    params.streams = 4;
    params.distanceLines = 4;
    params.degree = 2;
    StreamPrefetcher pf(params, &l2);

    pf.observeMiss(0x10000, 0);         // allocate
    pf.observeMiss(0x10040, 10);        // confirm direction
    EXPECT_GT(pf.prefetchesIssued(), 0u);
    // Prefetches land "distance" lines ahead.
    EXPECT_TRUE(l2.contains(0x10040 + 4 * 64));
    EXPECT_TRUE(l2.contains(0x10040 + 5 * 64));
}

TEST(StreamPrefetcherTest, DetectsDescendingStream)
{
    MainMemory dram(100, 8, 64);
    Cache l2(smallCache(64, 4), &dram);
    StreamPrefetcherParams params;
    params.distanceLines = 4;
    params.degree = 1;
    StreamPrefetcher pf(params, &l2);
    pf.observeMiss(0x20000, 0);
    pf.observeMiss(0x20000 - 64, 10);
    pf.observeMiss(0x20000 - 128, 20);
    EXPECT_TRUE(l2.contains(0x20000 - 128 - 4 * 64));
}

TEST(StreamPrefetcherTest, RandomMissesPrefetchNothing)
{
    MainMemory dram(100, 8, 64);
    Cache l2(smallCache(64, 4), &dram);
    StreamPrefetcher pf(StreamPrefetcherParams{}, &l2);
    // Far-apart misses never match a stream window.
    for (int i = 0; i < 32; ++i)
        pf.observeMiss((Addr)i * 1024 * 1024, (Cycle)i);
    EXPECT_EQ(pf.prefetchesIssued(), 0u);
}

TEST(MemorySystemTest, TableIDefaults)
{
    MemorySystem mem(MemoryParams{});
    EXPECT_EQ(mem.l1d().params().sizeBytes, 32u * 1024);
    EXPECT_EQ(mem.l1d().params().ways, 8u);
    EXPECT_EQ(mem.l2().params().sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(mem.l2().params().hitLatency, 12u);
}

TEST(MemorySystemTest, DataPathCountsLlcMisses)
{
    MemorySystem mem(MemoryParams{});
    DataAccess first = mem.dataAccess(0x5000000, false, 0);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_TRUE(first.llcMiss);
    EXPECT_EQ(mem.llcMisses(), 1u);
    DataAccess second = mem.dataAccess(0x5000000, false, first.readyCycle);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_FALSE(second.llcMiss);
}

TEST(MemorySystemTest, FetchPathUsesTheL1I)
{
    MemorySystem mem(MemoryParams{});
    Cycle miss = mem.fetchAccess(0x1000, 0);
    EXPECT_GT(miss, 12u); // had to go below the L1I
    Cycle hitReady = mem.fetchAccess(0x1000, miss);
    EXPECT_EQ(hitReady, miss + mem.l1i().params().hitLatency);
}

TEST(MemorySystemTest, SequentialMissesTrainThePrefetcher)
{
    MemorySystem mem(MemoryParams{});
    Cycle t = 0;
    for (int i = 0; i < 64; ++i) {
        DataAccess access = mem.dataAccess(0x6000000 + (Addr)i * 64,
                                           false, t);
        t = access.readyCycle;
    }
    ASSERT_NE(mem.prefetcher(), nullptr);
    EXPECT_GT(mem.prefetcher()->prefetchesIssued(), 0u);
    // Late accesses should increasingly hit prefetched L2 lines: total
    // latency is far below 64 DRAM round trips.
    EXPECT_LT(t, 64u * 312u);
}

TEST(MemorySystemTest, PrefetchCanBeDisabled)
{
    MemoryParams params;
    params.prefetch = false;
    MemorySystem mem(params);
    EXPECT_EQ(mem.prefetcher(), nullptr);
}

} // namespace
} // namespace pubs::mem
