#include "common/serialize.hh"

#include <cstring>

#include "common/error.hh"

namespace pubs
{
namespace
{

/**
 * Object brackets are 4-byte markers derived from the tag name, with
 * distinct begin/end flavours so a begin can never satisfy an end.
 */
constexpr uint32_t beginSalt = 0x0b9ec75u;
constexpr uint32_t endSalt = 0xe9d0b9eu;

uint32_t
tagMark(const char *tag, uint32_t salt)
{
    uint32_t h = salt;
    for (const char *p = tag; *p; ++p)
        h = h * 131u + (uint8_t)*p;
    return h;
}

} // namespace

void
Serializer::u16(uint16_t v)
{
    out_.push_back((char)(v & 0xff));
    out_.push_back((char)(v >> 8));
}

void
Serializer::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out_.push_back((char)((v >> (8 * i)) & 0xff));
}

void
Serializer::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out_.push_back((char)((v >> (8 * i)) & 0xff));
}

void
Serializer::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Serializer::str(const std::string &s)
{
    u32((uint32_t)s.size());
    out_.append(s);
}

void
Serializer::bytes(const void *data, size_t len)
{
    out_.append((const char *)data, len);
}

void
Serializer::beginObject(const char *tag)
{
    u32(tagMark(tag, beginSalt));
}

void
Serializer::endObject(const char *tag)
{
    u32(tagMark(tag, endSalt));
}

const uint8_t *
Deserializer::need(size_t n)
{
    if (n > len_ - pos_) {
        throw CheckpointError(
            "payload truncated: need " + std::to_string(n) +
            " bytes at offset " + std::to_string(pos_) + ", have " +
            std::to_string(len_ - pos_));
    }
    const uint8_t *at = data_ + pos_;
    pos_ += n;
    return at;
}

uint8_t
Deserializer::u8()
{
    return *need(1);
}

uint16_t
Deserializer::u16()
{
    const uint8_t *p = need(2);
    return (uint16_t)(p[0] | (p[1] << 8));
}

uint32_t
Deserializer::u32()
{
    const uint8_t *p = need(4);
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) |
           ((uint32_t)p[3] << 24);
}

uint64_t
Deserializer::u64()
{
    const uint8_t *p = need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= (uint64_t)p[i] << (8 * i);
    return v;
}

bool
Deserializer::boolean()
{
    uint8_t v = u8();
    if (v > 1) {
        throw CheckpointError("bool field holds " + std::to_string(v));
    }
    return v != 0;
}

double
Deserializer::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::str()
{
    uint32_t n = u32();
    if (n > len_ - pos_) {
        throw CheckpointError("string length " + std::to_string(n) +
                              " overruns payload");
    }
    const uint8_t *p = need(n);
    return std::string((const char *)p, n);
}

void
Deserializer::bytes(void *out, size_t len)
{
    std::memcpy(out, need(len), len);
}

void
Deserializer::beginObject(const char *tag)
{
    uint32_t mark = u32();
    if (mark != tagMark(tag, beginSalt)) {
        throw CheckpointError(std::string("checkpoint section '") + tag +
                              "' begin marker mismatch");
    }
}

void
Deserializer::endObject(const char *tag)
{
    uint32_t mark = u32();
    if (mark != tagMark(tag, endSalt)) {
        throw CheckpointError(std::string("checkpoint section '") + tag +
                              "' end marker mismatch");
    }
}

void
checkTableLength(uint32_t stored, size_t live, const char *what)
{
    if (stored != live) {
        throw CheckpointError(std::string("checkpoint table '") + what +
                              "' holds " + std::to_string(stored) +
                              " entries, expected " + std::to_string(live));
    }
}

void
Deserializer::expectEnd() const
{
    if (!exhausted()) {
        throw CheckpointError("payload has " +
                              std::to_string(len_ - pos_) + " trailing bytes");
    }
}

} // namespace pubs
