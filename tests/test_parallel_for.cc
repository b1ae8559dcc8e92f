/**
 * @file
 * Concurrency tests for sim::parallelFor: coverage of every index,
 * the empty and single-thread cases, and exception propagation. All of
 * these are meant to run under TSan too (see the PUBS_TSAN CMake
 * option).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel_for.hh"

namespace pubs::sim
{
namespace
{

TEST(ParallelFor, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(4, hits.size(), [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroItemsReturnsImmediately)
{
    parallelFor(2, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadRunsEverythingOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    parallelFor(1, 100, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, FirstExceptionIsRethrownAfterEveryThreadJoins)
{
    // Index 0 throws at once; the others are slow enough to still be
    // running. The caller must see the exception only after they end.
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    try {
        parallelFor(4, 4, [&](size_t i) {
            if (i == 0)
                throw std::runtime_error("run exploded");
            ++running;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --running;
            ++finished;
        });
        FAIL() << "the exception must reach the caller";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "run exploded");
    }
    EXPECT_EQ(running.load(), 0);
    EXPECT_LE(finished.load(), 3);

    // Not only std::exception: anything thrown is carried across.
    EXPECT_THROW(parallelFor(2, 8, [](size_t) { throw 42; }), int);
}

} // namespace
} // namespace pubs::sim
