/**
 * @file
 * Bit-manipulation helpers: power-of-two math, field extraction, and the
 * XOR-fold hash the paper uses to compress table tags (Section IV, Fig. 7).
 */

#ifndef PUBS_COMMON_BITS_HH
#define PUBS_COMMON_BITS_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace pubs
{

/** True iff @p v is a power of two (zero is not). */
constexpr bool
isPowerOf2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(@p v); @p v must be non-zero. */
constexpr unsigned
floorLog2(uint64_t v)
{
    return v == 0 ? 0 : (unsigned)std::bit_width(v) - 1;
}

/** log2 of a power of two. */
inline unsigned
exactLog2(uint64_t v)
{
    panic_if(!isPowerOf2(v), "exactLog2 of non-power-of-two %llu",
             (unsigned long long)v);
    return floorLog2(v);
}

/** Smallest power of two >= @p v. */
constexpr uint64_t
nextPowerOf2(uint64_t v)
{
    uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Index of the lowest set bit of @p v; @p v must be non-zero. */
inline unsigned
countTrailingZeros(uint64_t v)
{
    return (unsigned)__builtin_ctzll(v);
}

/** A mask with the low @p bits bits set. */
constexpr uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << bits) - 1);
}

/** Extract bits [first, first+count) of @p v. */
constexpr uint64_t
bitsOf(uint64_t v, unsigned first, unsigned count)
{
    return (v >> first) & mask(count);
}

/**
 * XOR-fold @p value down to @p width bits.
 *
 * This is the hash of Fig. 7: the value is cut into consecutive
 * @p width -bit slices which are XORed together. Used to compress the tag
 * part of a PC into q bits for the brslice_tab (q=8) and conf_tab (q=4).
 */
inline uint64_t
xorFold(uint64_t value, unsigned width)
{
    if (width == 0)
        return 0;
    if (width >= 64)
        return value;
    uint64_t folded = 0;
    while (value != 0) {
        folded ^= value & mask(width);
        value >>= width;
    }
    return folded;
}

/** Store @p value at @p dst as 8 little-endian bytes. */
inline void
storeLe64(uint8_t *dst, uint64_t value)
{
    if constexpr (std::endian::native == std::endian::little) {
        __builtin_memcpy(dst, &value, sizeof(value));
    } else {
        for (unsigned i = 0; i < 8; ++i)
            dst[i] = (uint8_t)(value >> (8 * i));
    }
}

} // namespace pubs

#endif // PUBS_COMMON_BITS_HH
