/**
 * @file
 * Tests for the PUBS hardware structures: key schemes / tag hashing, the
 * generic set-associative table, def_tab, brslice_tab, conf_tab, and the
 * Table III cost model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "pubs/brslice_tab.hh"
#include "pubs/conf_tab.hh"
#include "pubs/cost_model.hh"
#include "pubs/def_tab.hh"
#include "pubs/table.hh"

namespace pubs::pubs
{
namespace
{

KeyScheme
defaultScheme()
{
    return {256, 8, false, PubsParams::pcBits};
}

TEST(KeySchemeTest, IndexAndTagPartition)
{
    KeyScheme scheme = defaultScheme();
    EXPECT_EQ(scheme.indexBits(), 8u);
    EXPECT_EQ(scheme.tagBits(), 8u);
    TableKey key = scheme.keyOf(0x1000);
    EXPECT_LT(key.index, 256u);
    EXPECT_LE(key.tag, 0xffu);
}

TEST(KeySchemeTest, SameSetDifferentTagsUsuallyDiffer)
{
    KeyScheme scheme = defaultScheme();
    // PCs that share an index (same low word bits) should mostly get
    // distinct folded tags.
    TableKey a = scheme.keyOf(0x1000);
    int collisions = 0;
    for (int i = 1; i <= 64; ++i) {
        TableKey b = scheme.keyOf(0x1000 + (Pc)i * 256 * instBytes);
        EXPECT_EQ(a.index, b.index);
        collisions += a.tag == b.tag;
    }
    EXPECT_LT(collisions, 8); // 8-bit hash: expect ~1/256 collisions
}

TEST(KeySchemeTest, FullTagsAreExact)
{
    KeyScheme scheme{256, 8, true, PubsParams::pcBits};
    EXPECT_EQ(scheme.tagBits(), PubsParams::pcBits - 8);
    TableKey a = scheme.keyOf(0x1000);
    TableKey b = scheme.keyOf(0x1000 + 256 * instBytes);
    EXPECT_EQ(a.index, b.index);
    EXPECT_NE(a.tag, b.tag);
}

TEST(KeySchemeTest, TaglessHasZeroTagBits)
{
    KeyScheme scheme{256, 0, false, PubsParams::pcBits};
    EXPECT_EQ(scheme.tagBits(), 0u);
    EXPECT_EQ(scheme.keyOf(0x99999).tag, 0u);
}

TEST(HashedTagTableTest, LookupMissesThenHits)
{
    KeyScheme scheme = defaultScheme();
    HashedTagTable<int> table(256, 4, scheme);
    TableKey key = scheme.keyOf(0x1000);
    EXPECT_EQ(table.lookup(key), nullptr);
    bool allocated = false;
    table.lookupOrAllocate(key, allocated) = 42;
    EXPECT_TRUE(allocated);
    int *hit = table.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 42);
    table.lookupOrAllocate(key, allocated);
    EXPECT_FALSE(allocated);
}

TEST(HashedTagTableTest, LruEvictionWithinSet)
{
    KeyScheme scheme{4, 8, false, PubsParams::pcBits};
    HashedTagTable<int> table(4, 2, scheme);
    // Three keys in the same set with (almost surely) distinct tags.
    TableKey k1 = scheme.keyOf(0x1000);
    TableKey k2 = scheme.keyOf(0x1000 + 4 * instBytes * 7);
    TableKey k3 = scheme.keyOf(0x1000 + 4 * instBytes * 21);
    k2.index = k1.index;
    k3.index = k1.index;
    ASSERT_NE(k1.tag, k2.tag);
    ASSERT_NE(k1.tag, k3.tag);
    ASSERT_NE(k2.tag, k3.tag);

    bool allocated;
    table.lookupOrAllocate(k1, allocated) = 1;
    table.lookupOrAllocate(k2, allocated) = 2;
    table.lookup(k1); // k2 is now LRU
    table.lookupOrAllocate(k3, allocated) = 3;
    EXPECT_TRUE(allocated);
    EXPECT_NE(table.lookup(k1), nullptr);
    EXPECT_EQ(table.lookup(k2), nullptr);
    EXPECT_NE(table.lookup(k3), nullptr);
}

TEST(HashedTagTableTest, ClearInvalidatesEverything)
{
    KeyScheme scheme = defaultScheme();
    HashedTagTable<int> table(256, 4, scheme);
    bool allocated;
    table.lookupOrAllocate(scheme.keyOf(0x1000), allocated) = 1;
    EXPECT_EQ(table.validEntries(), 1u);
    table.clear();
    EXPECT_EQ(table.validEntries(), 0u);
    EXPECT_EQ(table.lookup(scheme.keyOf(0x1000)), nullptr);
}

TEST(DefTabTest, TracksMostRecentProducer)
{
    KeyScheme scheme = defaultScheme();
    DefTab def(scheme);
    TableKey out;
    EXPECT_FALSE(def.producerOf(5, out));
    TableKey p1 = scheme.keyOf(0x1000);
    TableKey p2 = scheme.keyOf(0x2000);
    def.define(5, p1);
    ASSERT_TRUE(def.producerOf(5, out));
    EXPECT_EQ(out, p1);
    def.define(5, p2); // overwritten by a newer producer
    ASSERT_TRUE(def.producerOf(5, out));
    EXPECT_EQ(out, p2);
}

TEST(DefTabTest, CoversUnifiedRegisterSpace)
{
    KeyScheme scheme = defaultScheme();
    DefTab def(scheme);
    TableKey key = scheme.keyOf(0x1000);
    def.define(0, key);
    def.define(numLogicalRegs - 1, key);
    TableKey out;
    EXPECT_TRUE(def.producerOf(numLogicalRegs - 1, out));
    def.clear();
    EXPECT_FALSE(def.producerOf(0, out));
}

TEST(BrsliceTabTest, LinkAndLookup)
{
    PubsParams params;
    BrsliceTab tab(params);
    TableKey inst = tab.keyOf(0x1000);
    TableKey confPtr{7, 3};
    TableKey out;
    EXPECT_FALSE(tab.lookup(inst, out));
    tab.link(inst, confPtr);
    ASSERT_TRUE(tab.lookup(inst, out));
    EXPECT_EQ(out, confPtr);
    // Re-linking to a different branch overwrites the pointer.
    TableKey other{9, 1};
    tab.link(inst, other);
    ASSERT_TRUE(tab.lookup(inst, out));
    EXPECT_EQ(out, other);
}

TEST(ConfTabTest, PaperAllocationSemantics)
{
    PubsParams params;
    params.confCounterBits = 3; // max = 7
    ConfTab tab(params);
    TableKey key = tab.keyOf(0x1000);

    // Unknown branches are treated as confident (Section III-A3).
    EXPECT_FALSE(tab.unconfident(key));

    // First outcome correct: counter initialised to max => confident.
    tab.update(key, true);
    EXPECT_FALSE(tab.unconfident(key));

    // A misprediction resets to 0 => unconfident until re-saturated.
    tab.update(key, false);
    EXPECT_TRUE(tab.unconfident(key));
    for (int i = 0; i < 6; ++i)
        tab.update(key, true);
    EXPECT_TRUE(tab.unconfident(key)); // 6 < 7
    tab.update(key, true);
    EXPECT_FALSE(tab.unconfident(key));
    // One more correct outcome leaves it saturated.
    tab.update(key, true);
    uint32_t value = 0;
    ASSERT_TRUE(tab.counterValue(key, value));
    EXPECT_EQ(value, 7u);
}

TEST(ConfTabTest, WiderCountersAreHarderToSaturate)
{
    // With misprediction probability p, P(confident) collapses as the
    // width grows — the effect behind Fig. 11's unconfident-rate line.
    auto confidentFraction = [](unsigned bits, double accuracy) {
        PubsParams params;
        params.confCounterBits = bits;
        ConfTab tab(params);
        TableKey key = tab.keyOf(0x1000);
        Rng rng(13);
        tab.update(key, true); // allocated at the maximum
        int confident = 0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i) {
            confident += !tab.unconfident(key);
            tab.update(key, rng.chance(accuracy));
        }
        return (double)confident / trials;
    };
    double narrow = confidentFraction(2, 0.95);
    double wide = confidentFraction(8, 0.95);
    EXPECT_GT(narrow, wide);
}

TEST(ConfTabTest, FirstOutcomeIncorrectStartsUnconfident)
{
    PubsParams params;
    ConfTab tab(params);
    TableKey key = tab.keyOf(0x2000);
    tab.update(key, false);
    EXPECT_TRUE(tab.unconfident(key));
    uint32_t value = 99;
    ASSERT_TRUE(tab.counterValue(key, value));
    EXPECT_EQ(value, 0u);
}

TEST(ConfTabTest, UpDownShapeDecrementsInsteadOfResetting)
{
    PubsParams params;
    params.confCounterBits = 3; // max = 7
    params.counterShape = CounterShape::UpDown;
    ConfTab tab(params);
    TableKey key = tab.keyOf(0x1000);
    tab.update(key, true); // allocate at max
    tab.update(key, false);
    uint32_t value = 0;
    ASSERT_TRUE(tab.counterValue(key, value));
    EXPECT_EQ(value, 6u); // decremented, not reset
    EXPECT_TRUE(tab.unconfident(key));
    tab.update(key, true);
    EXPECT_FALSE(tab.unconfident(key)); // recovers in one step
}

TEST(ConfTabTest, UpDownSaturatesAtZero)
{
    PubsParams params;
    params.confCounterBits = 2;
    params.counterShape = CounterShape::UpDown;
    ConfTab tab(params);
    TableKey key = tab.keyOf(0x1000);
    tab.update(key, false); // allocate at 0
    tab.update(key, false);
    uint32_t value = 99;
    ASSERT_TRUE(tab.counterValue(key, value));
    EXPECT_EQ(value, 0u);
}

TEST(ConfTabTest, HashAliasingSharesCounters)
{
    // Two branches with colliding (index, hashed tag) share one counter
    // — the cost/accuracy trade of Section IV. Force a collision by
    // using the tagless configuration.
    PubsParams params;
    params.tagless = true;
    ConfTab tab(params);
    Pc a = 0x1000;
    Pc b = 0x1000 + (Pc)params.confSets * instBytes; // same set
    tab.update(tab.keyOf(a), false);
    EXPECT_TRUE(tab.unconfident(tab.keyOf(b)));
}

/** The counter @p tab holds for @p key; the test fails if it holds none. */
uint32_t
counterOf(ConfTab &tab, const TableKey &key)
{
    uint32_t value = 99;
    EXPECT_TRUE(tab.counterValue(key, value));
    return value;
}

TEST(ConfidenceTest, ResettingCounterSemantics)
{
    PubsParams params;
    params.confCounterBits = 3; // max = 7
    ConfTab tab(params);
    TableKey key = tab.keyOf(0x1000);
    tab.update(key, true);
    EXPECT_EQ(counterOf(tab, key), 7u); // allocated at max on correct
    EXPECT_FALSE(tab.unconfident(key));
    tab.update(key, false);
    EXPECT_EQ(counterOf(tab, key), 0u); // reset to zero
    EXPECT_TRUE(tab.unconfident(key));
    for (int i = 0; i < 6; ++i)
        tab.update(key, true);
    EXPECT_EQ(counterOf(tab, key), 6u);
    EXPECT_TRUE(tab.unconfident(key)); // 6 < 7
    tab.update(key, true);
    EXPECT_FALSE(tab.unconfident(key)); // saturated
    tab.update(key, true);
    EXPECT_EQ(counterOf(tab, key), 7u); // stays saturated
}

TEST(ConfidenceTest, InitialiseIncorrectStartsAtZero)
{
    // A branch whose first outcome is a misprediction is allocated at
    // zero, whatever the counter's shape.
    for (CounterShape shape : {CounterShape::Resetting, CounterShape::UpDown}) {
        PubsParams params;
        params.confCounterBits = 6;
        params.counterShape = shape;
        ConfTab tab(params);
        TableKey key = tab.keyOf(0x2000);
        tab.update(key, false);
        EXPECT_EQ(counterOf(tab, key), 0u);
        EXPECT_TRUE(tab.unconfident(key));
    }
}

TEST(ConfidenceTest, UpDownCounterToleratesNoise)
{
    // One misprediction costs a saturated up/down counter one step and
    // a saturated resetting counter everything.
    auto afterOneMistake = [](CounterShape shape) {
        PubsParams params;
        params.confCounterBits = 4; // max = 15
        params.counterShape = shape;
        ConfTab tab(params);
        TableKey key = tab.keyOf(0x1000);
        tab.update(key, true);
        tab.update(key, false);
        return counterOf(tab, key);
    };
    EXPECT_EQ(afterOneMistake(CounterShape::UpDown), 14u);
    EXPECT_EQ(afterOneMistake(CounterShape::Resetting), 0u);
}

TEST(CostModelTest, DefaultConfigurationIsAboutFourKB)
{
    PubsParams params;
    CostBreakdown cost = computeCost(params);
    // Paper Table III: total 4.0 KB.
    EXPECT_NEAR(cost.totalKB(), 4.0, 0.25);
    EXPECT_GT(cost.brsliceTabKB(), cost.confTabKB());
    EXPECT_GT(cost.confTabKB(), cost.defTabKB());
}

TEST(CostModelTest, FullTagsCostFarMore)
{
    PubsParams hashed;
    PubsParams full;
    full.fullTags = true;
    // Section IV: un-hashed tags are "a large cost overhead".
    EXPECT_GT(computeCost(full).totalKB(),
              3.0 * computeCost(hashed).totalKB());
}

TEST(CostModelTest, TaglessIsCheapest)
{
    PubsParams hashed;
    PubsParams tagless;
    tagless.tagless = true;
    EXPECT_LT(computeCost(tagless).totalKB(),
              computeCost(hashed).totalKB());
}

TEST(CostModelTest, CounterBitsScaleConfTab)
{
    PubsParams narrow;
    narrow.confCounterBits = 2;
    PubsParams wide;
    wide.confCounterBits = 8;
    EXPECT_GT(computeCost(wide).confTabBits,
              computeCost(narrow).confTabBits);
    EXPECT_EQ(computeCost(wide).brsliceTabBits,
              computeCost(narrow).brsliceTabBits);
}

TEST(CostModelTest, FormatMentionsAllTables)
{
    std::string text = formatCostTable(PubsParams{});
    EXPECT_NE(text.find("def_tab"), std::string::npos);
    EXPECT_NE(text.find("brslice_tab"), std::string::npos);
    EXPECT_NE(text.find("conf_tab"), std::string::npos);
}

} // namespace
} // namespace pubs::pubs
