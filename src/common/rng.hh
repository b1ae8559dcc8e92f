/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every source of randomness in the simulator (workload data, mode-switch
 * weighted free-list choice, dispatch-order perturbation of the random
 * queue) draws from a seeded Rng so that runs are exactly reproducible.
 */

#ifndef PUBS_COMMON_RNG_HH
#define PUBS_COMMON_RNG_HH

#include <cstdint>

namespace pubs
{

/** xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialise state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ull;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next uniform 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound) from one draw; bound must be non-zero. */
    uint64_t below(uint64_t bound) { return belowOf(next(), bound); }

    /** Uniform value in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** True with probability @p p (0..1). */
    bool
    chance(double p)
    {
        return toDouble(next()) < p;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return toDouble(next()); }

    /**
     * What below(@p bound) returns when next() returns @p draw: the low
     * bits when @p bound is a power of two (the same value as the
     * remainder, without the division), else the remainder. The slight
     * modulo bias is irrelevant for workload synthesis.
     */
    static uint64_t
    belowOf(uint64_t draw, uint64_t bound)
    {
        return (bound & (bound - 1)) == 0 ? draw & (bound - 1)
                                           : draw % bound;
    }

    /** What uniform() returns when next() returns @p v. */
    static double
    toDouble(uint64_t v)
    {
        return (v >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace pubs

#endif // PUBS_COMMON_RNG_HH
