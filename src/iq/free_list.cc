#include "iq/free_list.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pubs::iq
{

FreeList::FreeList(uint32_t first, uint32_t count)
{
    entries_.reserve(count);
    // Push in reverse so that pop() initially hands out ascending indices.
    for (uint32_t i = 0; i < count; ++i)
        entries_.push_back(first + count - 1 - i);
}

uint32_t
FreeList::pop()
{
    panic_if(entries_.empty(), "pop from empty free list");
    uint32_t index = entries_.back();
    entries_.pop_back();
    return index;
}

uint32_t
FreeList::popRandom(Rng &rng)
{
    panic_if(entries_.empty(), "pop from empty free list");
    size_t pick = (size_t)rng.below(entries_.size());
    std::swap(entries_[pick], entries_.back());
    uint32_t index = entries_.back();
    entries_.pop_back();
    return index;
}

void
FreeList::push(uint32_t index)
{
    entries_.push_back(index);
}

} // namespace pubs::iq
