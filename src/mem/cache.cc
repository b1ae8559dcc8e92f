#include "mem/cache.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace pubs::mem
{

Cache::Cache(const CacheParams &params, MemLevel *next)
    : params_(params), next_(next)
{
    fatal_if(!isPowerOf2(params.lineBytes), "line size must be 2^n");
    fatal_if(params.ways == 0, "cache needs at least one way");
    uint64_t lines = params.sizeBytes / params.lineBytes;
    fatal_if(lines % params.ways != 0, "size/ways mismatch");
    sets_ = (unsigned)(lines / params.ways);
    fatal_if(!isPowerOf2(sets_), "cache sets must be 2^n");
    fatal_if(params.ways > 32, "the per-set valid mask is 32 bits");
    mruWay_.assign(sets_, 0);
    fatal_if(params.mshrs == 0, "cache needs at least one MSHR");
    lines_.resize(lines);
    tags_.assign(lines, 0);
    validBits_.assign(sets_, 0);
    mshrs_.reserve(params.mshrs);
}

size_t
Cache::setOf(Addr addr) const
{
    return (addr / params_.lineBytes) & (sets_ - 1);
}

uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr / params_.lineBytes) / sets_;
}

int
Cache::findWay(Addr addr) const
{
    size_t set = setOf(addr);
    size_t base = set * params_.ways;
    uint64_t tag = tagOf(addr);
    // Most-recently-hit way first: at most one way can match the tag,
    // so the search order cannot change which line is found.
    uint32_t valid = validBits_[set];
    unsigned hint = mruWay_[set];
    if (((valid >> hint) & 1u) && tags_[base + hint] == tag)
        return (int)hint;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (((valid >> w) & 1u) && tags_[base + w] == tag)
            return (int)w;
    }
    return -1;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    int way = findWay(addr);
    if (way < 0)
        return nullptr;
    size_t set = setOf(addr);
    mruWay_[set] = (uint8_t)way;
    return &lines_[set * params_.ways + (size_t)way];
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

unsigned
Cache::victimWay(Addr addr)
{
    size_t set = setOf(addr);
    uint32_t free = ~validBits_[set] &
                    (params_.ways == 32 ? 0xffffffffu
                                        : ((1u << params_.ways) - 1));
    if (free != 0)
        return (unsigned)countTrailingZeros((uint64_t)free);
    size_t base = set * params_.ways;
    unsigned victim = 0;
    for (unsigned w = 1; w < params_.ways; ++w) {
        if (lines_[base + w].lastUse < lines_[base + victim].lastUse)
            victim = w;
    }
    if (lines_[base + victim].dirty)
        ++writebacks_;
    return victim;
}

Cache::Line &
Cache::installLine(Addr addr, unsigned way)
{
    size_t set = setOf(addr);
    mruWay_[set] = (uint8_t)way;
    validBits_[set] |= 1u << way;
    tags_[set * params_.ways + way] = tagOf(addr);
    return lines_[set * params_.ways + way];
}

Cycle
Cache::missPath(Addr addr, Cycle now, bool isPrefetch)
{
    Addr lineAddr = lineAddrOf(addr);

    // Retire completed MSHRs.
    std::erase_if(mshrs_, [now](const Mshr &m) { return m.readyCycle <= now; });

    // Merge with an outstanding miss to the same line.
    for (const Mshr &m : mshrs_) {
        if (m.lineAddr == lineAddr) {
            ++mshrHits_;
            return m.readyCycle;
        }
    }

    // A full MSHR file delays the request until the earliest entry
    // retires (the structural stall of a blocking miss).
    Cycle start = now;
    if (mshrs_.size() >= params_.mshrs) {
        auto earliest = std::min_element(
            mshrs_.begin(), mshrs_.end(),
            [](const Mshr &a, const Mshr &b) {
                return a.readyCycle < b.readyCycle;
            });
        start = earliest->readyCycle;
        mshrs_.erase(earliest);
    }

    Cycle ready = next_->fill(lineAddr, start, isPrefetch);
    mshrs_.push_back({lineAddr, ready});

    // Install the line now; its data only becomes usable at `ready`
    // (accesses that arrive earlier merge with the in-flight fill).
    Line &line = installLine(addr, victimWay(addr));
    line.dirty = false;
    line.wasPrefetched = isPrefetch;
    line.lastUse = ++useClock_;
    line.fillReady = ready;
    return ready;
}

Cycle
Cache::access(Addr addr, bool write, Cycle now, bool &hit)
{
    ++accesses_;
    Addr lineAddr = lineAddrOf(addr);
    if (!write && memoHit_ && lineAddr == memoLine_) {
        hit = true;
        return now + params_.hitLatency;
    }
    memoLine_ = lineAddr;
    memoHit_ = false;
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useClock_;
        if (write)
            line->dirty = true;
        if (line->wasPrefetched) {
            ++usefulPrefetches_;
            line->wasPrefetched = false;
        }
        if (line->fillReady > now) {
            // Fill still in flight: merge with it.
            hit = false;
            ++mshrHits_;
            return line->fillReady + params_.hitLatency;
        }
        hit = true;
        memoHit_ = !write;
        return now + params_.hitLatency;
    }
    hit = false;
    ++misses_;
    Cycle ready = missPath(addr, now, false);
    if (write) {
        if (Line *line = findLine(addr))
            line->dirty = true;
    }
    return ready + params_.hitLatency;
}

Cycle
Cache::fill(Addr addr, Cycle now, bool isPrefetch)
{
    memoHit_ = false;
    // A request from the level above is a demand access at this level
    // unless it is a prefetch.
    if (!isPrefetch)
        ++accesses_;
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useClock_;
        if (line->wasPrefetched && !isPrefetch) {
            ++usefulPrefetches_;
            line->wasPrefetched = false;
        }
        if (line->fillReady > now) {
            if (!isPrefetch)
                ++mshrHits_;
            return line->fillReady + params_.hitLatency;
        }
        return now + params_.hitLatency;
    }
    if (!isPrefetch)
        ++misses_;
    return missPath(addr, now, isPrefetch) + params_.hitLatency;
}

void
Cache::installPrefetch(Addr addr, Cycle now)
{
    memoHit_ = false;
    if (findLine(addr))
        return;
    ++prefetchFills_;
    missPath(addr, now, true);
}

void
Cache::warmMissPath(Addr addr, bool isPrefetch)
{
    // Same install as missPath(), minus every cycle-coupled effect:
    // no MSHR entry, no fill-in-flight window, and the level below is
    // warmed instead of timed.
    next_->warmFill(lineAddrOf(addr), isPrefetch);
    Line &line = installLine(addr, victimWay(addr));
    line.dirty = false;
    line.wasPrefetched = isPrefetch;
    line.lastUse = ++useClock_;
    line.fillReady = 0;
}

bool
Cache::warmAccess(Addr addr, bool write)
{
    ++accesses_;
    memoHit_ = false;
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useClock_;
        if (write)
            line->dirty = true;
        if (line->wasPrefetched) {
            ++usefulPrefetches_;
            line->wasPrefetched = false;
        }
        return true;
    }
    ++misses_;
    warmMissPath(addr, false);
    if (write) {
        if (Line *line = findLine(addr))
            line->dirty = true;
    }
    return false;
}

void
Cache::warmFill(Addr addr, bool isPrefetch)
{
    memoHit_ = false;
    if (!isPrefetch)
        ++accesses_;
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useClock_;
        if (line->wasPrefetched && !isPrefetch) {
            ++usefulPrefetches_;
            line->wasPrefetched = false;
        }
        return;
    }
    if (!isPrefetch)
        ++misses_;
    warmMissPath(addr, isPrefetch);
}

void
Cache::warmInstallPrefetch(Addr addr)
{
    memoHit_ = false;
    if (findLine(addr))
        return;
    ++prefetchFills_;
    warmMissPath(addr, true);
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
Cache::serialize(Serializer &s) const
{
    s.beginObject("cache");
    s.str(params_.name);
    s.u32(sets_);
    s.u32(params_.ways);
    s.u32(params_.lineBytes);
    s.u64(useClock_);
    for (size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        bool valid =
            (validBits_[i / params_.ways] >> (i % params_.ways)) & 1u;
        uint8_t flags = (valid ? 1 : 0) | (line.dirty ? 2 : 0) |
                        (line.wasPrefetched ? 4 : 0);
        s.u8(flags);
        s.u64(tags_[i]);
        s.u64(line.lastUse);
    }
    for (uint8_t way : mruWay_)
        s.u8(way);
    s.u64(accesses_);
    s.u64(misses_);
    s.u64(writebacks_);
    s.u64(prefetchFills_);
    s.u64(usefulPrefetches_);
    s.u64(mshrHits_);
    s.endObject("cache");
}

void
Cache::unserialize(Deserializer &d)
{
    d.beginObject("cache");
    std::string name = d.str();
    uint32_t sets = d.u32(), ways = d.u32(), lineBytes = d.u32();
    if (name != params_.name || sets != sets_ || ways != params_.ways ||
        lineBytes != params_.lineBytes) {
        throw CheckpointError(
            "checkpoint cache '" + name + "' (" + std::to_string(sets) +
            "x" + std::to_string(ways) + "x" + std::to_string(lineBytes) +
            ") does not match configured '" + params_.name + "'");
    }
    useClock_ = d.u64();
    std::fill(validBits_.begin(), validBits_.end(), 0);
    for (size_t i = 0; i < lines_.size(); ++i) {
        Line &line = lines_[i];
        uint8_t flags = d.u8();
        if (flags & ~7u)
            throw CheckpointError("checkpoint cache line flags corrupt");
        if (flags & 1)
            validBits_[i / params_.ways] |= 1u << (i % params_.ways);
        line.dirty = flags & 2;
        line.wasPrefetched = flags & 4;
        tags_[i] = d.u64();
        line.lastUse = d.u64();
        line.fillReady = 0;
    }
    for (uint8_t &way : mruWay_) {
        way = d.u8();
        if (way >= params_.ways)
            throw CheckpointError("checkpoint cache MRU way out of range");
    }
    accesses_ = d.u64();
    misses_ = d.u64();
    writebacks_ = d.u64();
    prefetchFills_ = d.u64();
    usefulPrefetches_ = d.u64();
    mshrHits_ = d.u64();
    mshrs_.clear();
    memoLine_ = 0;
    memoHit_ = false;
    d.endObject("cache");
}

MainMemory::MainMemory(unsigned latency, unsigned bytesPerCycle,
                       unsigned lineBytes)
    : latency_(latency),
      cyclesPerLine_((lineBytes + bytesPerCycle - 1) / bytesPerCycle)
{
    fatal_if(bytesPerCycle == 0, "memory bandwidth must be non-zero");
}

Cycle
MainMemory::fill(Addr, Cycle now, bool)
{
    ++requests_;
    Cycle start = std::max(now, channelFree_);
    channelFree_ = start + cyclesPerLine_;
    return start + latency_;
}

void
MainMemory::warmFill(Addr, bool)
{
    ++requests_;
}

void
MainMemory::serialize(Serializer &s) const
{
    s.beginObject("main_memory");
    s.u64(requests_);
    s.endObject("main_memory");
}

void
MainMemory::unserialize(Deserializer &d)
{
    d.beginObject("main_memory");
    requests_ = d.u64();
    channelFree_ = 0;
    d.endObject("main_memory");
}

} // namespace pubs::mem
