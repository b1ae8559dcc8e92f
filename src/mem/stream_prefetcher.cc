#include "mem/stream_prefetcher.hh"

#include <cstdlib>

#include "common/error.hh"
#include "common/logging.hh"
#include "mem/cache.hh"

namespace pubs::mem
{

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherParams &params,
                                   Cache *target)
    : params_(params), target_(target), streams_(params.streams)
{
    fatal_if(params.streams == 0, "prefetcher needs at least one stream");
    fatal_if(!target, "prefetcher needs a target cache");
}

StreamPrefetcher::Stream *
StreamPrefetcher::findStream(uint64_t line)
{
    // A stream matches if the new miss is within the tracking window of
    // its last line, in either direction.
    for (auto &s : streams_) {
        if (!s.valid)
            continue;
        int64_t delta = (int64_t)line - (int64_t)s.lastLine;
        if (delta != 0 && std::llabs(delta) <= 4)
            return &s;
    }
    return nullptr;
}

StreamPrefetcher::Stream &
StreamPrefetcher::allocateStream(uint64_t line)
{
    Stream *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.lastUse < victim->lastUse)
            victim = &s;
    }
    ++allocated_;
    *victim = Stream{};
    victim->valid = true;
    victim->lastLine = line;
    victim->lastUse = ++useClock_;
    return *victim;
}

void
StreamPrefetcher::observeMiss(Addr addr, Cycle now)
{
    observe(addr, now, false);
}

void
StreamPrefetcher::warmObserveMiss(Addr addr)
{
    observe(addr, 0, true);
}

void
StreamPrefetcher::observe(Addr addr, Cycle now, bool warm)
{
    const unsigned lineBytes = target_->params().lineBytes;
    uint64_t line = addr / lineBytes;
    Stream *stream = findStream(line);
    if (!stream) {
        allocateStream(line);
        return;
    }

    int64_t delta = (int64_t)line - (int64_t)stream->lastLine;
    int direction = delta > 0 ? 1 : -1;
    stream->lastUse = ++useClock_;

    if (!stream->confirmed) {
        stream->confirmed = true;
        stream->direction = direction;
    } else if (direction != stream->direction) {
        // Direction flip: retrain.
        stream->confirmed = false;
        stream->direction = direction;
        stream->lastLine = line;
        return;
    }
    stream->lastLine = line;

    // Issue `degree` prefetches `distance` lines ahead.
    for (unsigned d = 0; d < params_.degree; ++d) {
        int64_t targetLine =
            (int64_t)line +
            stream->direction * (int64_t)(params_.distanceLines + d);
        if (targetLine < 0)
            continue;
        Addr prefetchAddr = (Addr)targetLine * lineBytes;
        if (warm)
            target_->warmInstallPrefetch(prefetchAddr);
        else
            target_->installPrefetch(prefetchAddr, now);
        ++issued_;
    }
}

void
StreamPrefetcher::serialize(Serializer &s) const
{
    s.beginObject("stream_prefetcher");
    s.u32((uint32_t)streams_.size());
    s.u64(useClock_);
    s.u64(issued_);
    s.u64(allocated_);
    for (const Stream &st : streams_) {
        s.boolean(st.valid);
        s.boolean(st.confirmed);
        s.i64(st.direction);
        s.u64(st.lastLine);
        s.u64(st.lastUse);
    }
    s.endObject("stream_prefetcher");
}

void
StreamPrefetcher::unserialize(Deserializer &d)
{
    d.beginObject("stream_prefetcher");
    uint32_t count = d.u32();
    if (count != streams_.size()) {
        throw CheckpointError("checkpoint prefetcher has " +
                              std::to_string(count) + " streams, expected " +
                              std::to_string(streams_.size()));
    }
    useClock_ = d.u64();
    issued_ = d.u64();
    allocated_ = d.u64();
    for (Stream &st : streams_) {
        st.valid = d.boolean();
        st.confirmed = d.boolean();
        int64_t direction = d.i64();
        if (direction != 1 && direction != -1)
            throw CheckpointError("checkpoint prefetcher direction corrupt");
        st.direction = (int)direction;
        st.lastLine = d.u64();
        st.lastUse = d.u64();
    }
    d.endObject("stream_prefetcher");
}

} // namespace pubs::mem
