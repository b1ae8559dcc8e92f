/**
 * @file
 * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to protect
 * every byte that crosses a crash boundary: proc-pool pipe frames,
 * sweep-journal records, and any other payload whose torn or bit-flipped
 * remains must be detected rather than trusted. Two seeded CRC32 streams
 * also make the 64-bit content keys of sweep journals and checkpoint
 * artifacts.
 */

#ifndef PUBS_COMMON_CHECKSUM_HH
#define PUBS_COMMON_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace pubs
{

/**
 * CRC32 of @p len bytes at @p data. Chain blocks by passing the
 * previous return value as @p seed (the usual pre/post inversion is
 * handled internally, so crc32(b) == crc32(b2, crc32(b1)) for b1+b2).
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

inline uint32_t
crc32(const std::string &bytes, uint32_t seed = 0)
{
    return crc32(bytes.data(), bytes.size(), seed);
}

/**
 * 64-bit content address of a sequence of texts: two differently seeded
 * CRC32 streams over the same bytes. Sweep journals are keyed and
 * checkpoint artifacts named by it, so changing it orphans every
 * journal and cached checkpoint already written.
 */
class ContentKey
{
  public:
    void
    mix(const std::string &text)
    {
        lo_ = crc32(text, lo_);
        hi_ = crc32(text, hi_ ^ 0x9e3779b9u);
    }

    uint64_t value() const { return ((uint64_t)hi_ << 32) | lo_; }

  private:
    uint32_t lo_ = 0;
    uint32_t hi_ = 0x50554253u;
};

} // namespace pubs

#endif // PUBS_COMMON_CHECKSUM_HH
