/**
 * @file
 * Branch-prediction tests: both perceptron configurations learn the
 * patterns they should, the BTB and RAS behave, and the JRS confidence
 * counters follow the paper's resetting semantics.
 */

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "branch/confidence.hh"
#include "branch/perceptron.hh"
#include "branch/predictor.hh"
#include "branch/ras.hh"
#include "common/rng.hh"

namespace pubs::branch
{
namespace
{

/** Train on a repeating pattern and return the steady-state accuracy. */
double
accuracyOnPattern(Perceptron &pred, Pc pc,
                  const std::vector<bool> &pattern, int rounds)
{
    // Warm up for half the rounds, measure the rest.
    int correct = 0, measured = 0;
    for (int r = 0; r < rounds; ++r) {
        for (bool taken : pattern) {
            bool guess = pred.predict(pc);
            pred.update(pc, taken);
            if (r >= rounds / 2) {
                ++measured;
                correct += guess == taken;
            }
        }
    }
    return (double)correct / measured;
}

class PredictorPattern
    : public ::testing::TestWithParam<PredictorKind>
{
  protected:
    std::unique_ptr<Perceptron> pred_ = makePredictor(GetParam());
};

TEST_P(PredictorPattern, LearnsAlwaysTaken)
{
    EXPECT_GT(accuracyOnPattern(*pred_, 0x1000, {true}, 200), 0.95);
}

TEST_P(PredictorPattern, LearnsAlwaysNotTaken)
{
    EXPECT_GT(accuracyOnPattern(*pred_, 0x1000, {false}, 200), 0.95);
}

TEST_P(PredictorPattern, LearnsShortPeriodicPattern)
{
    // T T T N repeating: any history-based predictor should master it.
    EXPECT_GT(accuracyOnPattern(*pred_, 0x1000,
                                {true, true, true, false}, 300),
              0.9);
}

TEST_P(PredictorPattern, CannotBeatRandomness)
{
    Rng rng(7);
    int correct = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        bool taken = rng.chance(0.5);
        bool guess = pred_->predict(0x1000);
        pred_->update(0x1000, taken);
        correct += guess == taken;
    }
    EXPECT_NEAR((double)correct / trials, 0.5, 0.05);
}

TEST_P(PredictorPattern, HasNonZeroCost)
{
    EXPECT_GT(pred_->costBits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PredictorPattern,
    ::testing::Values(PredictorKind::Perceptron,
                      PredictorKind::PerceptronLarge),
    [](const auto &info) {
        std::string name = predictorKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(PerceptronTest, TableIConfiguration)
{
    auto pred = makePredictor(PredictorKind::Perceptron);
    EXPECT_EQ(pred->historyBits(), 34u);
    EXPECT_EQ(pred->tableEntries(), 256u);
    EXPECT_EQ(pred->threshold(), (int)(1.93 * 34 + 14));
}

TEST(PerceptronTest, LargeConfigurationCostsMore)
{
    auto small = makePredictor(PredictorKind::Perceptron);
    auto large = makePredictor(PredictorKind::PerceptronLarge);
    EXPECT_GT(large->costBits(), small->costBits());
    // Section V-F: the enlargement is "more than double" the default.
    EXPECT_GT((double)large->costBits(), 2.0 * (double)small->costBits());
}

TEST(PerceptronTest, LearnsLinearlySeparableCorrelation)
{
    // Outcome = history[2]: a single weight suffices.
    Perceptron pred(8, 64);
    uint64_t history = 0;
    int correct = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        bool taken = (history >> 2) & 1;
        bool guess = pred.predict(0x1000);
        pred.update(0x1000, taken);
        if (i > trials / 2)
            correct += guess == taken;
        history = (history << 1) | (taken ? 1 : 0);
        // keep an independent driver pattern in the low bit
        if (i % 3 == 0)
            history ^= 1;
    }
    EXPECT_GT((double)correct / (trials / 2 - 1), 0.9);
}

TEST(BtbTest, HitAfterUpdate)
{
    Btb btb(16, 2);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000);
    auto target = btb.lookup(0x1000);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, 0x2000u);
}

TEST(BtbTest, LruReplacementWithinSet)
{
    Btb btb(4, 2); // pcs 4 instructions apart in the same set: stride 16
    Pc a = 0x1000, b = a + 4 * 16, c = a + 8 * 16;
    btb.update(a, 1);
    btb.update(b, 2);
    btb.lookup(a);      // touch a so b becomes LRU
    btb.update(c, 3);   // evicts b
    EXPECT_TRUE(btb.lookup(a).has_value());
    EXPECT_FALSE(btb.lookup(b).has_value());
    EXPECT_TRUE(btb.lookup(c).has_value());
}

TEST(BtbTest, UpdateRefreshesTarget)
{
    Btb btb(16, 4);
    btb.update(0x1000, 0x2000);
    btb.update(0x1000, 0x3000);
    EXPECT_EQ(*btb.lookup(0x1000), 0x3000u);
}

TEST(BtbTest, TableIConfigurationCost)
{
    Btb btb(2048, 4);
    EXPECT_GT(btb.costBits(), 0u);
}

TEST(RasTest, PushPopOrder)
{
    Ras ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u); // empty
}

TEST(RasTest, OverflowWrapsKeepingNewest)
{
    Ras ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(ConfidenceTest, ResettingCounterSemantics)
{
    ResettingCounter counter(3); // max = 7
    counter.initialise(true);
    EXPECT_TRUE(counter.confident()); // init to max on correct
    counter.update(false);
    EXPECT_FALSE(counter.confident()); // reset to zero
    EXPECT_EQ(counter.value(), 0u);
    for (int i = 0; i < 6; ++i)
        counter.update(true);
    EXPECT_FALSE(counter.confident()); // 6 < 7
    counter.update(true);
    EXPECT_TRUE(counter.confident()); // saturated
    counter.update(true);
    EXPECT_EQ(counter.value(), 7u); // stays saturated
}

TEST(ConfidenceTest, InitialiseIncorrectStartsAtZero)
{
    ResettingCounter counter(6);
    counter.initialise(false);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_FALSE(counter.confident());
}

TEST(ConfidenceTest, WiderCountersAreHarderToSaturate)
{
    // With misprediction probability p, P(confident) collapses as the
    // width grows — the effect behind Fig. 11's unconfident-rate line.
    auto confidentFraction = [](unsigned bits, double accuracy) {
        Rng rng(13);
        ResettingCounter counter(bits);
        counter.initialise(true);
        int confident = 0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i) {
            confident += counter.confident();
            counter.update(rng.chance(accuracy));
        }
        return (double)confident / trials;
    };
    double narrow = confidentFraction(2, 0.95);
    double wide = confidentFraction(8, 0.95);
    EXPECT_GT(narrow, wide);
}

TEST(ConfidenceTest, UpDownCounterToleratesNoise)
{
    UpDownCounter updown(4);
    updown.initialise(true);
    updown.update(false); // one mistake only decrements
    EXPECT_EQ(updown.value(), 14u);
    ResettingCounter resetting(4);
    resetting.initialise(true);
    resetting.update(false);
    EXPECT_EQ(resetting.value(), 0u);
}

TEST(Factory, NamesRoundTrip)
{
    EXPECT_STREQ(predictorKindName(PredictorKind::Perceptron),
                 "perceptron");
    EXPECT_STREQ(predictorKindName(PredictorKind::PerceptronLarge),
                 "perceptron-large");
    EXPECT_EQ(makePredictor(PredictorKind::PerceptronLarge)->historyBits(),
              36u);
}

} // namespace
} // namespace pubs::branch
