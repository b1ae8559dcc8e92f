/**
 * @file
 * A generic set-associative, write-back/write-allocate, LRU cache with
 * MSHR-based non-blocking misses. The model is latency-based (each access
 * returns the cycle its data becomes available) rather than event-driven,
 * which is sufficient for the load-latency and MLP behaviour the paper's
 * evaluation depends on.
 */

#ifndef PUBS_MEM_CACHE_HH
#define PUBS_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace pubs::mem
{

struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    unsigned hitLatency = 2;
    unsigned mshrs = 16;
};

/** A level below a cache that can be asked for a line. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Request the line containing @p addr at time @p now.
     * @param isPrefetch demand misses count in stats; prefetches do not.
     * @return the cycle the line arrives.
     */
    virtual Cycle fill(Addr addr, Cycle now, bool isPrefetch) = 0;

    /**
     * Functional-warming fill: update contents, replacement state and
     * counters exactly like fill() at an idle instant, but create no
     * cycle-coupled state (no MSHR, no in-flight fill, no channel
     * reservation). Warming is therefore a pure fold over the access
     * stream — warming A then B leaves the same state as warming A+B in
     * one pass, which is what makes checkpoint chaining bit-exact.
     */
    virtual void warmFill(Addr addr, bool isPrefetch) = 0;
};

class Cache : public MemLevel
{
  public:
    Cache(const CacheParams &params, MemLevel *next);

    /**
     * Demand access (load/store/fetch) at time @p now.
     * @param write marks the line dirty on hit/fill.
     * @param hit out-parameter: did the access hit?
     * @return cycle the data is available.
     */
    Cycle access(Addr addr, bool write, Cycle now, bool &hit);

    /** MemLevel interface: a higher level requests this line. */
    Cycle fill(Addr addr, Cycle now, bool isPrefetch) override;

    /** Install a line without a demand request (prefetch landing here). */
    void installPrefetch(Addr addr, Cycle now);

    /**
     * Functional-warming demand access: same contents/LRU/counter
     * effects as access() with no timing state. @return hit?
     */
    bool warmAccess(Addr addr, bool write);

    /** MemLevel interface, warming flavour. */
    void warmFill(Addr addr, bool isPrefetch) override;

    /** Warming counterpart of installPrefetch(). */
    void warmInstallPrefetch(Addr addr);

    /**
     * Checkpoint the warm state: contents, LRU clocks and counters.
     * Cycle-coupled state (MSHRs, in-flight fills) must be idle — the
     * pipeline is pristine whenever a checkpoint is taken — so it is
     * not serialized and is re-zeroed on restore.
     */
    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

    /** Does the cache currently hold the line containing @p addr? */
    bool contains(Addr addr) const;

    const CacheParams &params() const { return params_; }

    uint64_t demandAccesses() const { return accesses_; }
    uint64_t demandMisses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    uint64_t prefetchFills() const { return prefetchFills_; }
    uint64_t usefulPrefetches() const { return usefulPrefetches_; }
    uint64_t mshrHits() const { return mshrHits_; }

    double
    missRate() const
    {
        return accesses_ ? (double)misses_ / (double)accesses_ : 0.0;
    }

  private:
    /**
     * Data-oriented line state (DESIGN.md §13): the fields the probe
     * touches on every access — tags and valid bits — live in dense
     * per-set arrays (tags_, validBits_) so a set's tags share one or
     * two cache lines. The remaining per-line state, touched only on
     * hits and fills, stays in this parallel record.
     */
    struct Line
    {
        bool dirty = false;
        bool wasPrefetched = false;
        uint64_t lastUse = 0;
        /** Cycle the line's data arrives (fill in flight until then). */
        Cycle fillReady = 0;
    };

    struct Mshr
    {
        Addr lineAddr = 0;
        Cycle readyCycle = 0;
    };

    Addr lineAddrOf(Addr addr) const { return addr & ~(Addr)(params_.lineBytes - 1); }
    size_t setOf(Addr addr) const;
    uint64_t tagOf(Addr addr) const;
    /** Way holding @p addr, or -1: the MRU way, then a scan of tags_. */
    int findWay(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    /** Pick the victim way for a fill (first invalid way, else LRU). */
    unsigned victimWay(Addr addr);
    /** Point set/way metadata at @p tag and return the line record. */
    Line &installLine(Addr addr, unsigned way);
    Cycle missPath(Addr addr, Cycle now, bool isPrefetch);
    void warmMissPath(Addr addr, bool isPrefetch);

    CacheParams params_;
    MemLevel *next_;
    unsigned sets_;
    uint64_t useClock_ = 0;
    std::vector<Line> lines_;
    /** Dense set-major tag array: tags_[set * ways + way]. */
    std::vector<uint64_t> tags_;
    /** Per-set valid bitmask (bit w = way w valid); ways <= 32. */
    std::vector<uint32_t> validBits_;
    std::vector<Mshr> mshrs_;

    /** Per-set most-recently-hit way, tried first by findLine(). A pure
     *  search hint: tags are unique within a set, so probe order never
     *  changes the outcome. */
    std::vector<uint8_t> mruWay_;

    /**
     * Clean-hit memo: when the immediately preceding demand access was
     * a read hit on a line whose fill had completed, a repeat read of
     * the same line can skip the way scan (the dominant case is
     * sequential i-fetch walking a line). Valid only back-to-back —
     * any other access, fill or prefetch invalidates it — so no LRU
     * decision, stat counter or returned latency can differ from the
     * unmemoised path (the only skipped effect is a lastUse re-bump of
     * a line nothing else touched in between, an order-preserving
     * relabelling; fillReady <= the memoising access's cycle <= now).
     */
    Addr memoLine_ = 0;
    bool memoHit_ = false;

    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
    uint64_t prefetchFills_ = 0;
    uint64_t usefulPrefetches_ = 0;
    uint64_t mshrHits_ = 0;
};

/** Fixed-latency, bandwidth-limited main memory (Table I: 300 cycles,
 *  8 B/cycle). */
class MainMemory : public MemLevel
{
  public:
    MainMemory(unsigned latency, unsigned bytesPerCycle, unsigned lineBytes);

    Cycle fill(Addr addr, Cycle now, bool isPrefetch) override;

    void warmFill(Addr addr, bool isPrefetch) override;

    uint64_t requests() const { return requests_; }

    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

  private:
    unsigned latency_;
    unsigned cyclesPerLine_;
    Cycle channelFree_ = 0;
    uint64_t requests_ = 0;
};

} // namespace pubs::mem

#endif // PUBS_MEM_CACHE_HH
