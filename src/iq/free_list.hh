/**
 * @file
 * A LIFO free list of entry indices. The random queue keeps one for its
 * priority partition and one for its normal partition (Section III-B2).
 */

#ifndef PUBS_IQ_FREE_LIST_HH
#define PUBS_IQ_FREE_LIST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace pubs::iq
{

class FreeList
{
  public:
    FreeList() = default;

    /** Populate with indices [first, first + count). */
    FreeList(uint32_t first, uint32_t count);

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

    /** Pop a free index; panics when empty. */
    uint32_t pop();

    /**
     * Pop a uniformly random free index. This models the *random queue*:
     * over the long term, holes open at arbitrary positions, so a newly
     * dispatched instruction's position — and therefore its positional
     * issue priority — is uncorrelated with its age (Section III-B1).
     */
    uint32_t popRandom(Rng &rng);

    /** Return an index to the list. */
    void push(uint32_t index);

    /** Current free indices, unordered (structural auditor). */
    const std::vector<uint32_t> &contents() const { return entries_; }

  private:
    std::vector<uint32_t> entries_;
};

} // namespace pubs::iq

#endif // PUBS_IQ_FREE_LIST_HH
