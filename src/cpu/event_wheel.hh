/**
 * @file
 * Cycle-bucketed event wheel for the event-driven pipeline core.
 *
 * Events carry an absolute fire cycle and land in bucket
 * (cycle & mask); each simulated cycle drains only its own bucket,
 * firing entries whose stored cycle matches and keeping the rest (an
 * event scheduled more than one wheel revolution ahead simply waits in
 * its bucket across wrap-arounds). Within a cycle, events fire in
 * schedule order (FIFO), which the determinism contract (DESIGN.md)
 * depends on.
 *
 * Cancellation is lazy: the wheel always delivers what was scheduled,
 * and consumers validate the payload (instruction id + sequence number)
 * against live state, so a squash never has to search the wheel.
 *
 * A bitmap marks the non-empty buckets, so scheduling and draining cost
 * O(1) and nextEventCycle() scans the bitmap forward from the last
 * drained cycle.
 */

#ifndef PUBS_CPU_EVENT_WHEEL_HH
#define PUBS_CPU_EVENT_WHEEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pubs::cpu
{

class EventWheel
{
  public:
    enum class Kind : uint8_t
    {
        OperandReady, ///< wake a consumer: one pending operand completed
        LoadRecheck,  ///< a store executed: re-test mem-blocked loads
    };

    struct Event
    {
        Cycle cycle;  ///< absolute fire cycle
        uint64_t b;   ///< payload (sequence number)
        uint32_t a;   ///< payload (instruction id)
        Kind kind;
    };

    /** @param buckets wheel size; rounded up to a power of two. */
    explicit EventWheel(unsigned buckets = 1024)
    {
        unsigned size = 1;
        while (size < buckets)
            size *= 2;
        buckets_.resize(size);
        occupied_.resize((size + 63) / 64);
        mask_ = size - 1;
    }

    /** Schedule an event strictly in the future (@p cycle > @p now). */
    void
    schedule(Cycle cycle, Kind kind, uint32_t a, uint64_t b, Cycle now)
    {
        panic_if(cycle <= now,
                 "event wheel schedule at cycle %llu not after now %llu",
                 (unsigned long long)cycle, (unsigned long long)now);
        const size_t slot = cycle & mask_;
        buckets_[slot].push_back({cycle, b, a, kind});
        occupied_[slot / 64] |= uint64_t(1) << (slot % 64);
        ++pending_;
    }

    /**
     * Fire every event due at @p now, in schedule order. Visitors may
     * schedule new events (they land in later cycles by construction).
     */
    template <typename Visitor>
    void
    drain(Cycle now, Visitor &&visit)
    {
        drained_ = now;
        if (pending_ == 0)
            return;
        // Index (not reference) the bucket on every access: a visitor
        // scheduling exactly one wheel revolution ahead would push into
        // this same bucket and may reallocate it.
        const size_t slot = now & mask_;
        size_t keep = 0;
        for (size_t i = 0; i < buckets_[slot].size(); ++i) {
            Event event = buckets_[slot][i];
            if (event.cycle == now) {
                --pending_;
                visit(event);
            } else {
                buckets_[slot][keep++] = event;
            }
        }
        buckets_[slot].resize(keep);
        if (keep == 0)
            occupied_[slot / 64] &= ~(uint64_t(1) << (slot % 64));
    }

    /**
     * Earliest pending fire cycle, or neverCycle when the wheel is
     * empty. Visits the non-empty buckets in cycle order from the one
     * after the last drained cycle; the bucket at distance d holds
     * events no earlier than drained + 1 + d, so the scan stops once
     * that bound reaches the earliest event found. An event more than
     * one revolution ahead is thus never mistaken for a nearer one.
     */
    Cycle
    nextEventCycle() const
    {
        if (pending_ == 0)
            return neverCycle;
        const size_t start = (drained_ + 1) & mask_;
        const size_t words = occupied_.size();
        Cycle best = neverCycle;
        // The start word twice: its bits from the start slot first, and
        // after a revolution its bits below the start slot.
        for (size_t step = 0; step <= words; ++step) {
            const size_t w = (start / 64 + step) % words;
            uint64_t bits = occupied_[w];
            if (step == 0)
                bits &= ~mask(start % 64);
            else if (step == words)
                bits &= mask(start % 64);
            for (; bits != 0; bits &= bits - 1) {
                const size_t slot = w * 64 + countTrailingZeros(bits);
                const Cycle bound = drained_ + 1 + ((slot - start) & mask_);
                if (bound >= best)
                    return best;
                for (const Event &event : buckets_[slot])
                    best = std::min(best, event.cycle);
            }
        }
        panic_if(best == neverCycle,
                 "event wheel: %zu events pending in no bucket", pending_);
        return best;
    }

    size_t pending() const { return pending_; }
    bool empty() const { return pending_ == 0; }

  private:
    std::vector<std::vector<Event>> buckets_;
    /** Bit s of word s / 64 is set iff bucket s holds an event. */
    std::vector<uint64_t> occupied_;
    uint64_t mask_ = 0;
    size_t pending_ = 0;
    Cycle drained_ = 0; ///< latest cycle drain() has processed
};

} // namespace pubs::cpu

#endif // PUBS_CPU_EVENT_WHEEL_HH
