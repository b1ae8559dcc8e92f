#include "mem/memory_system.hh"

#include "common/error.hh"

namespace pubs::mem
{

MemorySystem::MemorySystem(const MemoryParams &params) : params_(params)
{
    mem_ = std::make_unique<MainMemory>(params.memLatency,
                                        params.memBytesPerCycle,
                                        params.l2.lineBytes);
    l2_ = std::make_unique<Cache>(params.l2, mem_.get());
    l1i_ = std::make_unique<Cache>(params.l1i, l2_.get());
    l1d_ = std::make_unique<Cache>(params.l1d, l2_.get());
    if (params.prefetch) {
        prefetcher_ = std::make_unique<StreamPrefetcher>(params.prefetcher,
                                                         l2_.get());
    }
}

Cycle
MemorySystem::fetchAccess(Pc pc, Cycle now)
{
    uint64_t missesBefore = l2_->demandMisses();
    bool hit = false;
    Cycle ready = l1i_->access(pc, false, now, hit);
    if (!hit && params_.nextLineIPrefetch) {
        // Simple sequential instruction prefetch into the L1I.
        Addr nextLine = (pc | (Addr)(params_.l1i.lineBytes - 1)) + 1;
        l1i_->installPrefetch(nextLine, now);
    }
    llcMisses_ += l2_->demandMisses() - missesBefore;
    return ready;
}

DataAccess
MemorySystem::dataAccess(Addr addr, bool write, Cycle now)
{
    uint64_t l2MissesBefore = l2_->demandMisses();

    DataAccess result;
    result.readyCycle = l1d_->access(addr, write, now, result.l1Hit);
    result.llcMiss = l2_->demandMisses() != l2MissesBefore;
    if (result.llcMiss)
        ++llcMisses_;

    if (!result.l1Hit && prefetcher_)
        prefetcher_->observeMiss(addr, now);

    return result;
}

void
MemorySystem::warmFetch(Pc pc)
{
    uint64_t missesBefore = l2_->demandMisses();
    bool hit = l1i_->warmAccess(pc, false);
    if (!hit && params_.nextLineIPrefetch) {
        Addr nextLine = (pc | (Addr)(params_.l1i.lineBytes - 1)) + 1;
        l1i_->warmInstallPrefetch(nextLine);
    }
    llcMisses_ += l2_->demandMisses() - missesBefore;
}

DataAccess
MemorySystem::warmData(Addr addr, bool write)
{
    uint64_t l2MissesBefore = l2_->demandMisses();

    DataAccess result;
    result.l1Hit = l1d_->warmAccess(addr, write);
    result.readyCycle = 0;
    result.llcMiss = l2_->demandMisses() != l2MissesBefore;
    if (result.llcMiss)
        ++llcMisses_;

    if (!result.l1Hit && prefetcher_)
        prefetcher_->warmObserveMiss(addr);

    return result;
}

void
MemorySystem::serialize(Serializer &s) const
{
    s.beginObject("memory_system");
    l1i_->serialize(s);
    l1d_->serialize(s);
    l2_->serialize(s);
    mem_->serialize(s);
    s.boolean(prefetcher_ != nullptr);
    if (prefetcher_)
        prefetcher_->serialize(s);
    s.u64(llcMisses_);
    s.endObject("memory_system");
}

void
MemorySystem::unserialize(Deserializer &d)
{
    d.beginObject("memory_system");
    l1i_->unserialize(d);
    l1d_->unserialize(d);
    l2_->unserialize(d);
    mem_->unserialize(d);
    bool hadPrefetcher = d.boolean();
    if (hadPrefetcher != (prefetcher_ != nullptr)) {
        throw CheckpointError(
            "checkpoint prefetcher presence does not match configuration");
    }
    if (prefetcher_)
        prefetcher_->unserialize(d);
    llcMisses_ = d.u64();
    d.endObject("memory_system");
}

} // namespace pubs::mem
