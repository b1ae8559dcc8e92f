/**
 * @file
 * Unit tests for the common substrate: bit utilities, RNG determinism,
 * CRC32, statistics containers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hh"
#include "common/checksum.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace pubs
{
namespace
{

TEST(Bits, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1023), 9u);
}

TEST(Bits, NextPowerOf2)
{
    EXPECT_EQ(nextPowerOf2(1), 1u);
    EXPECT_EQ(nextPowerOf2(3), 4u);
    EXPECT_EQ(nextPowerOf2(64), 64u);
    EXPECT_EQ(nextPowerOf2(65), 128u);
}

TEST(Bits, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(64), ~uint64_t(0));
}

TEST(Bits, BitsOf)
{
    EXPECT_EQ(bitsOf(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(bitsOf(0xff, 0, 4), 0xfu);
}

TEST(Bits, XorFoldWidth)
{
    // Folded value always fits in the requested width.
    for (unsigned width = 1; width <= 16; ++width) {
        uint64_t folded = xorFold(0xdeadbeefcafebabeull, width);
        EXPECT_LE(folded, mask(width)) << "width " << width;
    }
}

TEST(Bits, XorFoldKnownValues)
{
    // 0xAB folded to 4 bits: 0xA ^ 0xB = 0x1.
    EXPECT_EQ(xorFold(0xab, 4), 0x1u);
    // Folding to >= operand width is the identity.
    EXPECT_EQ(xorFold(0x1234, 64), 0x1234u);
    EXPECT_EQ(xorFold(0, 8), 0u);
}

TEST(Bits, XorFoldDistinguishesSlices)
{
    // Values differing only above the fold width still differ after
    // folding (XOR mixes the high part in).
    EXPECT_NE(xorFold(0x0100, 8), xorFold(0x0000, 8));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowIsTheRemainderOfOneDraw)
{
    // Powers of two take the mask, other bounds the remainder; either
    // way one draw per call and the value next() % bound gives.
    Rng rng(5), twin(5);
    for (unsigned k = 0; k <= 40; ++k) {
        const uint64_t bound = 1ull << k;
        ASSERT_EQ(rng.below(bound), twin.next() % bound) << "2^" << k;
    }
    for (uint64_t bound : {3ull, 13ull, 1000ull, (1ull << 30) + 1})
        ASSERT_EQ(rng.below(bound), twin.next() % bound) << bound;
    EXPECT_EQ(rng.next(), twin.next());
}

/** CRC32 one byte at a time: the definition the fast path must meet. */
uint32_t
crc32Bytewise(const uint8_t *bytes, size_t len, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < len; ++i) {
        c ^= bytes[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesTheBytewiseDefinition)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u); // the check value
    Rng rng(9);
    std::vector<uint8_t> buffer(300);
    for (uint8_t &byte : buffer)
        byte = (uint8_t)rng.next();
    // Every length to 99 at every alignment 0..7, from chained seeds.
    uint32_t seed = 0;
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len < 100; ++len) {
            const uint8_t *at = buffer.data() + align;
            const uint32_t expected = crc32Bytewise(at, len, seed);
            ASSERT_EQ(crc32(at, len, seed), expected)
                << "align " << align << " len " << len;
            seed = expected;
        }
    }
    // Chaining splits anywhere.
    const uint32_t whole = crc32(buffer.data(), buffer.size());
    for (size_t cut = 0; cut <= buffer.size(); cut += 37)
        ASSERT_EQ(crc32(buffer.data() + cut, buffer.size() - cut,
                        crc32(buffer.data(), cut)),
                  whole)
            << cut;
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR((double)hits / trials, 0.3, 0.01);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(8);
    h.sample(0);
    h.sample(3);
    h.sample(3);
    h.sample(100); // overflow bucket
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(8), 1u);
    EXPECT_EQ(h.samples(), 4u);
}

TEST(Stats, HistogramPercentile)
{
    Histogram h(64);
    for (uint64_t v = 0; v < 100; ++v)
        h.sample(v % 10);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(Stats, StatGroupRoundTrip)
{
    StatGroup g("core");
    g.add("ipc", 1.5, "instructions per cycle");
    g.add("cycles", 1000);
    EXPECT_TRUE(g.has("ipc"));
    EXPECT_FALSE(g.has("nope"));
    EXPECT_DOUBLE_EQ(g.get("ipc"), 1.5);
    // Re-adding overwrites.
    g.add("ipc", 2.0);
    EXPECT_DOUBLE_EQ(g.get("ipc"), 2.0);
    std::string text = g.format();
    EXPECT_NE(text.find("core.ipc"), std::string::npos);
    EXPECT_NE(text.find("instructions per cycle"), std::string::npos);
}

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geometricMean({1.0, 2.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

} // namespace
} // namespace pubs
