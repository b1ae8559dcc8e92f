/**
 * @file
 * Fault-isolation tests: the pipe frame protocol, the seeded
 * fault-injection plan, and the ProcPool recovery matrix (crash,
 * hang-past-timeout, corrupt frame, permanent failure after retries).
 *
 * These tests fork, so the suites are deliberately named outside the
 * TSan CI job's test regex — fork() in a threaded TSan process is not a
 * supported combination.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include <signal.h>

#include "common/subprocess.hh"
#include "sim/proc_pool.hh"

namespace pubs
{
namespace
{

// --- frame protocol --------------------------------------------------

TEST(FrameProtocol, RoundTrip)
{
    std::string payload = "hello sweep row \x01\x02\xff";
    std::string frame = proc::encodeFrame(payload);
    EXPECT_EQ(frame.size(), proc::frameHeaderBytes + payload.size());

    std::string decoded;
    EXPECT_EQ(proc::nextFrame(frame, decoded), proc::FrameStatus::Ok);
    EXPECT_EQ(decoded, payload);
    EXPECT_TRUE(frame.empty()) << "the frame must be consumed";
}

TEST(FrameProtocol, EmptyPayloadRoundTrip)
{
    std::string frame = proc::encodeFrame("");
    std::string decoded;
    EXPECT_EQ(proc::nextFrame(frame, decoded), proc::FrameStatus::Ok);
    EXPECT_TRUE(decoded.empty());
}

TEST(FrameProtocol, EveryPrefixIsTruncatedNeverOk)
{
    std::string frame = proc::encodeFrame("payload bytes");
    std::string decoded;
    for (size_t n = 0; n < frame.size(); ++n) {
        SCOPED_TRACE("prefix length " + std::to_string(n));
        std::string prefix = frame.substr(0, n);
        EXPECT_EQ(proc::nextFrame(prefix, decoded),
                  proc::FrameStatus::Truncated);
        EXPECT_EQ(prefix.size(), n) << "a prefix must not be consumed";
    }
}

TEST(FrameProtocol, BadMagicIsCorruptImmediately)
{
    std::string frame = proc::encodeFrame("payload");
    frame[0] = 'X';
    std::string decoded;
    EXPECT_EQ(proc::nextFrame(frame, decoded), proc::FrameStatus::Corrupt);
    // Even a one-byte buffer with the wrong magic can never become a
    // valid frame.
    std::string one = "X";
    EXPECT_EQ(proc::nextFrame(one, decoded), proc::FrameStatus::Corrupt);
}

TEST(FrameProtocol, PayloadBitFlipFailsCrc)
{
    std::string frame = proc::encodeFrame("payload bytes");
    std::string decoded;
    for (size_t i = proc::frameHeaderBytes; i < frame.size(); ++i) {
        SCOPED_TRACE("flip at " + std::to_string(i));
        std::string bad = frame;
        bad[i] = (char)(bad[i] ^ 0x40);
        EXPECT_EQ(proc::nextFrame(bad, decoded),
                  proc::FrameStatus::Corrupt);
    }
}

TEST(FrameProtocol, TrailingGarbageIsCorrupt)
{
    // Bytes after a frame are the next frame, and junk is no frame.
    std::string stream = proc::encodeFrame("payload") + "junk";
    std::string decoded;
    EXPECT_EQ(proc::nextFrame(stream, decoded), proc::FrameStatus::Ok);
    EXPECT_EQ(decoded, "payload");
    EXPECT_EQ(proc::nextFrame(stream, decoded), proc::FrameStatus::Corrupt);
}

// --- fault plan ------------------------------------------------------

TEST(FaultPlan, ParsesDirectives)
{
    proc::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(
        proc::parseFaultPlan("crash:0.25:7,hang:0.5,corrupt", plan, error))
        << error;
    EXPECT_DOUBLE_EQ(plan.crashRate, 0.25);
    EXPECT_DOUBLE_EQ(plan.hangRate, 0.5);
    EXPECT_DOUBLE_EQ(plan.corruptRate, 1.0); // rate defaults to 1
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_TRUE(plan.any());

    ASSERT_TRUE(proc::parseFaultPlan("killafter:12", plan, error)) << error;
    EXPECT_EQ(plan.killAfter, 12u);
    EXPECT_DOUBLE_EQ(plan.crashRate, 0.0);

    ASSERT_TRUE(proc::parseFaultPlan("", plan, error)) << error;
    EXPECT_FALSE(plan.any());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    proc::FaultPlan plan;
    std::string error;
    for (const char *bad : {"explode", "crash:2.0", "crash:-1", "crash:x",
                            "killafter", "killafter:0", "crash:0.5:-3"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(proc::parseFaultPlan(bad, plan, error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(FaultPlan, RollIsDeterministicAndSeedSensitive)
{
    proc::FaultPlan plan;
    plan.crashRate = 0.5;
    plan.seed = 42;
    unsigned hits = 0;
    for (uint64_t i = 0; i < 256; ++i) {
        bool first = plan.injectCrash(i, 1);
        EXPECT_EQ(first, plan.injectCrash(i, 1)); // pure function
        hits += first ? 1 : 0;
        // A different attempt or seed is an independent coin; across
        // 256 tasks at rate 0.5 at least one must differ.
    }
    // rate 0.5 over 256 coins: all-heads/all-tails means a broken hash.
    EXPECT_GT(hits, 64u);
    EXPECT_LT(hits, 192u);

    proc::FaultPlan reseeded = plan;
    reseeded.seed = 43;
    bool anyDiffers = false;
    for (uint64_t i = 0; i < 256 && !anyDiffers; ++i)
        anyDiffers = plan.injectCrash(i, 1) != reseeded.injectCrash(i, 1);
    EXPECT_TRUE(anyDiffers);

    proc::FaultPlan never;
    never.crashRate = 0.0;
    proc::FaultPlan always;
    always.crashRate = 1.0;
    EXPECT_FALSE(never.injectCrash(0, 1));
    EXPECT_TRUE(always.injectCrash(0, 1));
}

// --- proc pool recovery matrix ---------------------------------------

sim::ProcPool::Config
quietConfig(unsigned procs, unsigned maxAttempts)
{
    sim::ProcPool::Config config;
    config.procs = procs;
    config.maxAttempts = maxAttempts;
    config.backoffBaseMs = 1; // keep retries fast under test
    config.timeoutSeconds = 120.0;
    return config;
}

TEST(ProcPool, RoundTripIsSlotIndexed)
{
    sim::ProcPool pool(quietConfig(4, 1));
    std::vector<sim::ProcResult> results =
        pool.run(9, [](size_t index, unsigned attempt) {
            return "task " + std::to_string(index) + " attempt " +
                   std::to_string(attempt);
        });
    ASSERT_EQ(results.size(), 9u);
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].attempts, 1u);
        EXPECT_EQ(results[i].payload,
                  "task " + std::to_string(i) + " attempt 1");
    }
    EXPECT_EQ(pool.stats().launches, 9u);
    EXPECT_EQ(pool.stats().permanentFailures, 0u);
}

TEST(ProcPool, EmptyRunReturnsEmpty)
{
    sim::ProcPool pool(quietConfig(2, 1));
    EXPECT_TRUE(pool.run(0, [](size_t, unsigned) { return ""; }).empty());
}

TEST(ProcPool, CrashingWorkerIsRetriedAndSucceeds)
{
    sim::ProcPool pool(quietConfig(2, 3));
    std::vector<sim::ProcResult> results =
        pool.run(4, [](size_t index, unsigned attempt) -> std::string {
            if (index % 2 == 0 && attempt == 1) {
                // First attempt of the even tasks segfaults; the retry
                // (a fresh process) must succeed untouched.
                ::signal(SIGSEGV, SIG_DFL);
                ::raise(SIGSEGV);
            }
            return "ok " + std::to_string(index);
        });
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].payload, "ok " + std::to_string(i));
        EXPECT_EQ(results[i].attempts, i % 2 == 0 ? 2u : 1u);
    }
    EXPECT_EQ(pool.stats().crashes, 2u);
    EXPECT_EQ(pool.stats().retries, 2u);
    EXPECT_EQ(pool.stats().permanentFailures, 0u);
}

TEST(ProcPool, CrashBeyondRetryBecomesSkip)
{
    sim::ProcPool::Config config = quietConfig(2, 2);
    config.faults.crashRate = 1.0; // every attempt of every task
    sim::ProcPool pool(config);
    std::vector<sim::ProcResult> results =
        pool.run(3, [](size_t, unsigned) { return std::string("unused"); });
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_FALSE(results[i].ok);
        EXPECT_EQ(results[i].attempts, 2u);
        EXPECT_NE(results[i].error.find("after 2 attempts"),
                  std::string::npos)
            << results[i].error;
        EXPECT_NE(results[i].error.find("signal"), std::string::npos)
            << results[i].error;
    }
    EXPECT_EQ(pool.stats().crashes, 6u);
    EXPECT_EQ(pool.stats().permanentFailures, 3u);
}

TEST(ProcPool, HangingWorkerIsKilledAndRetried)
{
    sim::ProcPool::Config config = quietConfig(2, 2);
    config.timeoutSeconds = 0.3;
    sim::ProcPool pool(config);
    std::vector<sim::ProcResult> results =
        pool.run(2, [](size_t, unsigned attempt) -> std::string {
            if (attempt == 1) {
                for (;;)
                    ::pause();
            }
            return "awake";
        });
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].payload, "awake");
        EXPECT_EQ(results[i].attempts, 2u);
    }
    EXPECT_EQ(pool.stats().timeouts, 2u);
    EXPECT_EQ(pool.stats().retries, 2u);
}

TEST(ProcPool, CorruptFrameIsRejectedByCrc)
{
    sim::ProcPool::Config config = quietConfig(2, 2);
    config.faults.corruptRate = 1.0; // every frame of every attempt
    sim::ProcPool pool(config);
    std::vector<sim::ProcResult> results =
        pool.run(2, [](size_t, unsigned) { return std::string("data"); });
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_FALSE(results[i].ok);
        EXPECT_NE(results[i].error.find("corrupt"), std::string::npos)
            << results[i].error;
    }
    EXPECT_EQ(pool.stats().corruptFrames, 4u);
    EXPECT_EQ(pool.stats().permanentFailures, 2u);
}

TEST(ProcPool, ThrowingChildFnIsRetriedAsFailure)
{
    sim::ProcPool pool(quietConfig(1, 2));
    std::vector<sim::ProcResult> results =
        pool.run(1, [](size_t, unsigned attempt) -> std::string {
            if (attempt == 1)
                throw std::runtime_error("boom");
            return "recovered";
        });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].payload, "recovered");
    EXPECT_EQ(results[0].attempts, 2u);
}

TEST(ProcPool, SeededInjectionEventuallyRecovers)
{
    // With a per-(task, attempt) coin at rate 0.5 and 16 attempts, a
    // task exhausts its retries with odds 2^-16 — and the coin is
    // deterministic, so this test either always passes or always fails
    // for a given seed.
    sim::ProcPool::Config config = quietConfig(4, 16);
    config.faults.crashRate = 0.5;
    config.faults.seed = 1234;
    sim::ProcPool pool(config);
    std::vector<sim::ProcResult> results = pool.run(
        8, [](size_t index, unsigned) { return std::to_string(index); });
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].payload, std::to_string(i));
    }
    EXPECT_GT(pool.stats().crashes, 0u);
}

} // namespace
} // namespace pubs
