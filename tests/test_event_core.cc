/**
 * @file
 * Event-driven core building blocks: the cycle event wheel (same-cycle
 * FIFO order, wrap-around past the wheel horizon, next-event search
 * against a brute-force minimum, lazy cancellation),
 * the per-queue ready bitmaps checked against a full-scan reference
 * model on randomized queue histories (including ShiftingQueue
 * compaction), the position-indexed LSQ lookups against the linear-scan
 * originals, the post-commit StoreBuffer against the full-depth
 * reference scan, and the dependent-record slab pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/slab.hh"
#include "cpu/event_wheel.hh"
#include "cpu/lsq.hh"
#include "iq/circular_queue.hh"
#include "iq/random_queue.hh"
#include "iq/shifting_queue.hh"

namespace pubs
{
namespace
{

using cpu::EventWheel;
using cpu::Lsq;
using cpu::StoreBuffer;

std::vector<uint32_t>
drainAt(EventWheel &wheel, Cycle now)
{
    std::vector<uint32_t> fired;
    wheel.drain(now, [&](const EventWheel::Event &event) {
        EXPECT_EQ(event.cycle, now);
        fired.push_back(event.a);
    });
    return fired;
}

TEST(EventWheelTest, SameCycleEventsFireInScheduleOrder)
{
    EventWheel wheel(16);
    wheel.schedule(5, EventWheel::Kind::OperandReady, 10, 0, 0);
    wheel.schedule(5, EventWheel::Kind::OperandReady, 11, 0, 0);
    wheel.schedule(5, EventWheel::Kind::LoadRecheck, 12, 0, 0);
    wheel.schedule(6, EventWheel::Kind::OperandReady, 99, 0, 0);
    EXPECT_EQ(wheel.pending(), 4u);
    EXPECT_EQ(wheel.nextEventCycle(), 5u);

    for (Cycle c = 1; c < 5; ++c)
        EXPECT_TRUE(drainAt(wheel, c).empty());
    EXPECT_EQ(drainAt(wheel, 5), (std::vector<uint32_t>{10, 11, 12}));
    EXPECT_EQ(wheel.nextEventCycle(), 6u);
    EXPECT_EQ(drainAt(wheel, 6), (std::vector<uint32_t>{99}));
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.nextEventCycle(), neverCycle);
}

TEST(EventWheelTest, InsertDuringDrainLandsInLaterCycle)
{
    // A visitor scheduling follow-on events (the wakeup cascade) must
    // not see them fire in the same drain.
    EventWheel wheel(8);
    wheel.schedule(3, EventWheel::Kind::OperandReady, 1, 0, 0);
    std::vector<uint32_t> fired;
    wheel.drain(3, [&](const EventWheel::Event &event) {
        fired.push_back(event.a);
        if (event.a == 1)
            wheel.schedule(4, EventWheel::Kind::OperandReady, 2, 0, 3);
    });
    EXPECT_EQ(fired, (std::vector<uint32_t>{1}));
    EXPECT_EQ(drainAt(wheel, 4), (std::vector<uint32_t>{2}));
}

TEST(EventWheelTest, WrapAroundPastTheWheelHorizon)
{
    // Events further out than the bucket count share buckets with
    // nearer cycles; each drain must fire only its own cycle, across
    // several wheel revolutions.
    EventWheel wheel(8); // bucket count 8: cycles 2, 10, 18 collide
    wheel.schedule(2, EventWheel::Kind::OperandReady, 1, 0, 0);
    wheel.schedule(10, EventWheel::Kind::OperandReady, 2, 0, 0);
    wheel.schedule(18, EventWheel::Kind::OperandReady, 3, 0, 0);
    EXPECT_EQ(wheel.nextEventCycle(), 2u);
    EXPECT_EQ(drainAt(wheel, 2), (std::vector<uint32_t>{1}));
    EXPECT_EQ(wheel.nextEventCycle(), 10u);
    EXPECT_EQ(drainAt(wheel, 10), (std::vector<uint32_t>{2}));
    EXPECT_EQ(drainAt(wheel, 18), (std::vector<uint32_t>{3}));
    EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, NextEventCycleMatchesBruteForceMinimum)
{
    // Random schedules, some several revolutions ahead, checked after
    // every step against the minimum over all pending events. Time
    // advances one cycle, jumps to the next event as the pipeline's idle
    // skip does, or leaps ahead while the wheel is empty.
    for (unsigned buckets : {8u, 64u, 1024u}) {
        for (uint64_t seed = 0; seed < 4; ++seed) {
            EventWheel wheel(buckets);
            Rng rng(seed * 7919 + buckets);
            std::multiset<Cycle> pending;
            Cycle now = 0;
            for (uint32_t step = 0; step < 4000; ++step) {
                for (uint64_t n = rng.below(3); n > 0; --n) {
                    Cycle ahead = rng.chance(0.2)
                                      ? 1 + rng.below(4 * buckets)
                                      : 1 + rng.below(6);
                    wheel.schedule(now + ahead,
                                   EventWheel::Kind::OperandReady, step, 0,
                                   now);
                    pending.insert(now + ahead);
                }
                const Cycle expected =
                    pending.empty() ? neverCycle : *pending.begin();
                ASSERT_EQ(wheel.nextEventCycle(), expected)
                    << buckets << " buckets, seed " << seed << ", step "
                    << step << ", now " << now;
                if (pending.empty())
                    now += rng.chance(0.5) ? 1 + rng.below(3 * buckets) : 1;
                else
                    now = rng.chance(0.5) ? expected : now + 1;
                wheel.drain(now, [&](const EventWheel::Event &event) {
                    ASSERT_EQ(event.cycle, now);
                    pending.erase(pending.find(event.cycle));
                });
                ASSERT_EQ(wheel.pending(), pending.size());
                ASSERT_TRUE(pending.empty() || *pending.begin() > now);
            }
        }
    }
}

TEST(EventWheelTest, LazyCancellationDeliversStalePayloads)
{
    // A squash never edits the wheel: cancelled events still fire and
    // the consumer is expected to discard them by sequence number.
    EventWheel wheel(8);
    wheel.schedule(4, EventWheel::Kind::OperandReady, 7, /*seq=*/41, 0);
    wheel.schedule(4, EventWheel::Kind::OperandReady, 7, /*seq=*/52, 0);
    std::vector<uint64_t> seqs;
    wheel.drain(4, [&](const EventWheel::Event &event) {
        seqs.push_back(event.b);
    });
    EXPECT_EQ(seqs, (std::vector<uint64_t>{41, 52}));
}

/**
 * Drive a queue with a random dispatch / remove / markReady /
 * clearReadySlot history and verify the ready bitmap and slot index
 * against a from-scratch reference model after every step.
 */
void
fuzzReadyBitmap(iq::IssueQueue &queue, bool partitioned, uint64_t seed)
{
    Rng rng(seed);
    uint32_t nextClient = 0;
    SeqNum nextSeq = 0;
    std::set<uint32_t> resident;
    std::set<uint32_t> ready; // reference model, by clientId

    auto verify = [&]() {
        const auto &slots = queue.prioritySlots();
        size_t readyBits = 0;
        for (uint32_t s = 0; s < slots.size(); ++s) {
            if (!slots[s].valid) {
                ASSERT_FALSE(queue.readyAt(s))
                    << "free slot " << s << " has a ready bit";
                continue;
            }
            ASSERT_EQ(queue.slotOf(slots[s].clientId), s);
            ASSERT_EQ(queue.readyAt(s),
                      ready.count(slots[s].clientId) != 0)
                << "slot " << s << " client " << slots[s].clientId;
            readyBits += queue.readyAt(s) ? 1 : 0;
        }
        ASSERT_EQ(queue.readyCount(), readyBits);
        ASSERT_EQ(queue.hasReady(), !ready.empty());
        for (uint32_t id : resident)
            ASSERT_NE(queue.slotOf(id), iq::IssueQueue::noSlot);
    };

    for (int step = 0; step < 600; ++step) {
        unsigned action = (unsigned)rng.below(4);
        if (action == 0) {
            bool priority = partitioned && rng.chance(0.3);
            if (queue.canDispatch(priority)) {
                uint32_t id = nextClient++;
                queue.dispatch(id, nextSeq++, priority);
                resident.insert(id);
            }
        } else if (action == 1 && !resident.empty()) {
            auto it = resident.begin();
            std::advance(it, (size_t)rng.below(resident.size()));
            uint32_t id = *it;
            queue.remove(id);
            resident.erase(id);
            ready.erase(id);
            ASSERT_EQ(queue.slotOf(id), iq::IssueQueue::noSlot);
        } else if (action == 2 && !resident.empty()) {
            auto it = resident.begin();
            std::advance(it, (size_t)rng.below(resident.size()));
            queue.markReady(*it);
            ready.insert(*it);
        } else if (action == 3 && !ready.empty()) {
            auto it = ready.begin();
            std::advance(it, (size_t)rng.below(ready.size()));
            uint32_t id = *it;
            queue.clearReadySlot(queue.slotOf(id));
            ready.erase(id);
        }
        verify();
    }
}

TEST(ReadyBitmapTest, RandomQueueMatchesReferenceModel)
{
    for (uint64_t seed = 0; seed < 4; ++seed) {
        iq::RandomQueue queue(24, 4, 0x51c3 + seed);
        fuzzReadyBitmap(queue, true, seed);
    }
}

TEST(ReadyBitmapTest, ShiftingQueueCompactionMovesBits)
{
    for (uint64_t seed = 0; seed < 4; ++seed) {
        iq::ShiftingQueue queue(24);
        fuzzReadyBitmap(queue, false, 100 + seed);
    }
}

TEST(ReadyBitmapTest, CircularQueueMatchesReferenceModel)
{
    for (uint64_t seed = 0; seed < 4; ++seed) {
        iq::CircularQueue queue(24);
        fuzzReadyBitmap(queue, false, 200 + seed);
    }
}

TEST(ReadyBitmapTest, MarkReadyIsIdempotent)
{
    iq::ShiftingQueue queue(8);
    queue.dispatch(5, 0, false);
    queue.markReady(5);
    queue.markReady(5);
    EXPECT_EQ(queue.readyCount(), 1u);
    queue.clearReadySlot(queue.slotOf(5));
    queue.clearReadySlot(queue.slotOf(5));
    EXPECT_EQ(queue.readyCount(), 0u);
}

TEST(LsqIndexedTest, PositionLookupsMatchLinearScans)
{
    // Random program-order histories: pushes of loads and stores with
    // overlapping addresses, out-of-order completions, head commits and
    // tail squashes. Every load's indexed dependence check must agree
    // with the linear scan at every step.
    for (uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(seed * 977 + 5);
        Lsq lsq(16);
        uint32_t nextId = 1;
        struct Op
        {
            uint32_t id;
            uint64_t pos;
            bool isStore;
            Addr addr;
            unsigned size;
            bool done = false;
        };
        std::vector<Op> live; // program order
        Cycle now = 10;

        for (int step = 0; step < 800; ++step) {
            ++now;
            unsigned action = (unsigned)rng.below(5);
            if (action <= 1 && !lsq.full()) {
                bool isStore = rng.chance(0.5);
                Addr addr = 0x1000 + 8 * rng.below(6);
                unsigned size = rng.chance(0.3) ? 4 : 8;
                uint32_t id = nextId++;
                uint64_t pos = lsq.push(id, isStore, addr, size);
                live.push_back({id, pos, isStore, addr, size});
            } else if (action == 2 && !live.empty()) {
                size_t victim = (size_t)rng.below(live.size());
                if (!live[victim].done) {
                    live[victim].done = true;
                    lsq.markDoneAt(live[victim].pos, live[victim].id, now);
                }
            } else if (action == 3 && !live.empty()) {
                lsq.remove(live.front().id);
                live.erase(live.begin());
            } else if (action == 4 && !live.empty()) {
                lsq.removeYoungest(live.back().id);
                live.pop_back();
            }

            for (const Op &op : live) {
                if (op.isStore)
                    continue;
                Lsq::Dep scan =
                    lsq.olderStoreDependence(op.id, op.addr, op.size);
                Lsq::Dep indexed =
                    lsq.olderStoreDependenceAt(op.pos, op.addr, op.size);
                ASSERT_EQ(scan.kind, indexed.kind)
                    << "seed " << seed << " step " << step;
                if (scan.kind == Lsq::Dep::Forward) {
                    ASSERT_EQ(scan.readyCycle, indexed.readyCycle);
                }
            }
        }
    }
}

TEST(LsqIndexedTest, MarkDoneAtCrossChecksTheId)
{
    Lsq lsq(4);
    uint64_t pos = lsq.push(7, true, 0x100, 8);
    lsq.markDoneAt(pos, 7, 20);
    Lsq::Dep dep = lsq.olderStoreDependenceAt(lsq.push(8, false, 0x100, 8),
                                              0x100, 8);
    EXPECT_EQ(dep.kind, Lsq::Dep::Forward);
    EXPECT_EQ(dep.readyCycle, 20 + Lsq::forwardLatency);
}

TEST(StoreBufferTest, LiveEntryLookupMatchesFullDepthReference)
{
    for (uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(seed + 31);
        StoreBuffer buffer(8);
        Cycle done = 100;
        for (int step = 0; step < 400; ++step) {
            if (rng.chance(0.4)) {
                buffer.insert(0x2000 + 8 * rng.below(6),
                              rng.chance(0.3) ? 4 : 8, done++);
            }
            Addr addr = 0x2000 + 4 * rng.below(12);
            unsigned size = rng.chance(0.5) ? 4 : 8;
            Cycle a = 0, b = 0;
            bool hitA = buffer.coveringStore(addr, size, a);
            bool hitB = buffer.coveringStoreReference(addr, size, b);
            ASSERT_EQ(hitA, hitB) << "seed " << seed << " step " << step;
            if (hitA) {
                ASSERT_EQ(a, b);
            }
        }
        ASSERT_LE(buffer.liveEntries(), buffer.depth());
    }
}

TEST(StoreBufferTest, YoungestCoveringStoreWins)
{
    StoreBuffer buffer(4);
    buffer.insert(0x100, 8, 10);
    buffer.insert(0x100, 8, 20);
    Cycle done = 0;
    ASSERT_TRUE(buffer.coveringStore(0x100, 8, done));
    EXPECT_EQ(done, 20u);
    // A partially-covering younger store does not satisfy the lookup.
    buffer.insert(0x104, 4, 30);
    ASSERT_TRUE(buffer.coveringStore(0x100, 8, done));
    EXPECT_EQ(done, 20u);
    // Overwrite the whole ring: the oldest entries fall out.
    for (Cycle c = 40; c < 44; ++c)
        buffer.insert(0x200, 8, c);
    EXPECT_FALSE(buffer.coveringStore(0x100, 8, done));
}

TEST(SlabPoolTest, HandlesAreRecycledAndValueInitialised)
{
    struct Node
    {
        int value = -1;
        uint32_t next = SlabPool<Node>::npos;
    };
    SlabPool<Node> pool;
    uint32_t a = pool.alloc();
    uint32_t b = pool.alloc();
    EXPECT_NE(a, b);
    pool.at(a).value = 42;
    pool.free(a);
    EXPECT_EQ(pool.live(), 1u);
    uint32_t c = pool.alloc(); // recycles a
    EXPECT_EQ(c, a);
    EXPECT_EQ(pool.at(c).value, -1) << "recycled node not re-initialised";
    EXPECT_EQ(pool.at(c).next, SlabPool<Node>::npos);
    EXPECT_EQ(pool.live(), 2u);
    EXPECT_EQ(pool.at(b).value, -1);
    // Stable addresses across growth.
    Node *bAddr = &pool.at(b);
    for (int i = 0; i < 500; ++i)
        pool.alloc();
    EXPECT_EQ(bAddr, &pool.at(b));
}

} // namespace
} // namespace pubs
