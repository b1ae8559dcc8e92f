/**
 * @file
 * A chunked slab pool: fixed-size records allocated out of stable
 * chunks, addressed by dense uint32_t handles and recycled through a
 * free list. Unlike a std::vector the chunk storage never moves, so
 * references held across an alloc() stay valid; unlike per-node heap
 * allocation the hot-path cost is a free-list pop.
 *
 * The pipeline's wakeup scoreboard uses one for dependent-list overflow
 * nodes; the in-flight instruction ring (pipeline.hh) is the same idiom
 * specialised with identity handles.
 */

#ifndef PUBS_COMMON_SLAB_HH
#define PUBS_COMMON_SLAB_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"

namespace pubs
{

template <typename T>
class SlabPool
{
  public:
    static constexpr uint32_t npos = UINT32_MAX;

    /** Allocate a value-initialised record; @return its handle. */
    uint32_t
    alloc()
    {
        uint32_t index;
        if (!freeList_.empty()) {
            index = freeList_.back();
            freeList_.pop_back();
        } else {
            index = (uint32_t)allocated_;
            panic_if(index == npos, "slab pool handle space exhausted");
            if (allocated_ % chunkSize == 0)
                chunks_.push_back(std::make_unique<T[]>(chunkSize));
            ++allocated_;
        }
        ++live_;
        at(index) = T{};
        return index;
    }

    /** Return @p index to the pool. */
    void
    free(uint32_t index)
    {
        panic_if(live_ == 0, "slab pool free with nothing live");
        --live_;
        freeList_.push_back(index);
    }

    T &
    at(uint32_t index)
    {
        return chunks_[index / chunkSize][index % chunkSize];
    }

    const T &
    at(uint32_t index) const
    {
        return chunks_[index / chunkSize][index % chunkSize];
    }

    /** Records currently allocated (for leak auditing). */
    size_t live() const { return live_; }

  private:
    static constexpr size_t chunkSize = 64;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<uint32_t> freeList_;
    size_t allocated_ = 0;
    size_t live_ = 0;
};

} // namespace pubs

#endif // PUBS_COMMON_SLAB_HH
