#include "common/checksum.hh"

#include <array>

namespace pubs
{

namespace
{

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: tables[0][b] is the CRC of byte b, and
 * tables[k][b] is that of byte b followed by k zero bytes, so eight
 * bytes fold into the CRC with eight independent lookups.
 */
CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (size_t k = 1; k < tables.size(); ++k)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xffu];
    return tables;
}

uint32_t
loadLe32(const uint8_t *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; bytes += 8, len -= 8) {
        const uint32_t lo = loadLe32(bytes) ^ c;
        const uint32_t hi = loadLe32(bytes + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
    }
    for (size_t i = 0; i < len; ++i)
        c = t[0][(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace pubs
