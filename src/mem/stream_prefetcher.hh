/**
 * @file
 * Stream-based data prefetcher (Table I: 32 tracked streams, 16-line
 * distance, degree 2, prefetching into the L2 cache). Streams are
 * detected from L1D demand-miss line addresses; once a stream has two
 * hits in the same direction it issues `degree` line prefetches `distance`
 * lines ahead of the demand address. A line is the target cache's line.
 */

#ifndef PUBS_MEM_STREAM_PREFETCHER_HH
#define PUBS_MEM_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace pubs::mem
{

class Cache;

struct StreamPrefetcherParams
{
    unsigned streams = 32;
    unsigned distanceLines = 16;
    unsigned degree = 2;
};

class StreamPrefetcher
{
  public:
    StreamPrefetcher(const StreamPrefetcherParams &params, Cache *target);

    /** Observe a demand miss at @p addr; may issue prefetches. */
    void observeMiss(Addr addr, Cycle now);

    /** Warming flavour: prefetches land via warmInstallPrefetch(). */
    void warmObserveMiss(Addr addr);

    uint64_t prefetchesIssued() const { return issued_; }
    uint64_t streamsAllocated() const { return allocated_; }

    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

  private:
    void observe(Addr addr, Cycle now, bool warm);
    struct Stream
    {
        bool valid = false;
        bool confirmed = false;
        int direction = 1;          ///< +1 ascending, -1 descending
        uint64_t lastLine = 0;
        uint64_t lastUse = 0;
    };

    Stream *findStream(uint64_t line);
    Stream &allocateStream(uint64_t line);

    StreamPrefetcherParams params_;
    Cache *target_;
    uint64_t useClock_ = 0;
    uint64_t issued_ = 0;
    uint64_t allocated_ = 0;
    std::vector<Stream> streams_;
};

} // namespace pubs::mem

#endif // PUBS_MEM_STREAM_PREFETCHER_HH
