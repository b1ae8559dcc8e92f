/**
 * @file
 * The full memory hierarchy of Table I: split 32 KB L1I / L1D, unified
 * 2 MB L2 (the LLC), 300-cycle 8 B/cycle main memory, and a stream
 * prefetcher observing L1D misses and filling the L2.
 */

#ifndef PUBS_MEM_MEMORY_SYSTEM_HH
#define PUBS_MEM_MEMORY_SYSTEM_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/stream_prefetcher.hh"

namespace pubs::mem
{

struct MemoryParams
{
    CacheParams l1i{"l1i", 32 * 1024, 8, 64, 1, 8};
    CacheParams l1d{"l1d", 32 * 1024, 8, 64, 2, 16};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, 64, 12, 32};
    unsigned memLatency = 300;
    unsigned memBytesPerCycle = 8;
    bool prefetch = true;
    StreamPrefetcherParams prefetcher{};
    /** Next-line instruction prefetch on L1I misses. */
    bool nextLineIPrefetch = true;
};

/** Outcome of a data-side access. */
struct DataAccess
{
    Cycle readyCycle = 0;
    bool l1Hit = false;
    bool llcMiss = false; ///< missed in the L2 (the last-level cache)
};

class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryParams &params);

    /** Instruction fetch of the line containing @p pc. */
    Cycle fetchAccess(Pc pc, Cycle now);

    /** Load/store data access. */
    DataAccess dataAccess(Addr addr, bool write, Cycle now);

    /** Functional-warming fetch: same contents/counter effects, no
     *  timing state (readyCycle of the warming DataAccess is 0). */
    void warmFetch(Pc pc);

    /** Functional-warming data access. */
    DataAccess warmData(Addr addr, bool write);

    /** Checkpoint every level plus the prefetcher and LLC-miss count. */
    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

    const Cache &l1i() const { return *l1i_; }
    const Cache &l1d() const { return *l1d_; }
    const Cache &l2() const { return *l2_; }
    const StreamPrefetcher *prefetcher() const { return prefetcher_.get(); }

    uint64_t llcMisses() const { return llcMisses_; }

  private:
    MemoryParams params_;
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;
    uint64_t llcMisses_ = 0;
};

} // namespace pubs::mem

#endif // PUBS_MEM_MEMORY_SYSTEM_HH
