/**
 * @file
 * Little-endian binary serialization: the one byte codec behind every
 * host-side format — checkpoint containers and payloads, sweep-row
 * payloads, sweep-journal headers and records, pipe-frame headers and
 * progress samples. Every multi-byte value is written little-endian
 * regardless of host order. Checkpoint payloads bracket objects with
 * CRC-tagged markers so a reader that drifts out of sync fails loudly at
 * the next bracket instead of silently misdecoding. Every read is
 * bounds-checked against the input, and every malformed input surfaces
 * as one typed error, CheckpointError; the decoders that report failure
 * as a bool catch it at their entry point.
 */

#ifndef PUBS_COMMON_SERIALIZE_HH
#define PUBS_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace pubs
{

/** Append-only little-endian byte sink. */
class Serializer
{
  public:
    void u8(uint8_t v) { out_.push_back((char)v); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i64(int64_t v) { u64((uint64_t)v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** IEEE-754 bit pattern, so doubles round-trip bit-exactly. */
    void f64(double v);
    /** Length-prefixed string (u32 length + raw bytes). */
    void str(const std::string &s);
    void bytes(const void *data, size_t len);

    /** Open/close a named section; the tag is checked on read. */
    void beginObject(const char *tag);
    void endObject(const char *tag);

    const std::string &data() const { return out_; }
    size_t size() const { return out_.size(); }

  private:
    std::string out_;
};

/**
 * Bounds-checked reader for Serializer output. Every underflow, tag
 * mismatch, bad bool or length overflow throws CheckpointError.
 */
class Deserializer
{
  public:
    Deserializer(const void *data, size_t len)
        : data_((const uint8_t *)data), len_(len)
    {}
    explicit Deserializer(const std::string &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int64_t i64() { return (int64_t)u64(); }
    bool boolean();
    double f64();
    std::string str();
    void bytes(void *out, size_t len);

    void beginObject(const char *tag);
    void endObject(const char *tag);

    size_t remaining() const { return len_ - pos_; }
    bool exhausted() const { return pos_ == len_; }
    /** Throw unless every payload byte has been consumed. */
    void expectEnd() const;

  private:
    const uint8_t *need(size_t n);

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
};

/**
 * Length-prefixed vector of fixed-width integers, element width inferred
 * from the value type. Reading throws CheckpointError when the stored
 * length differs from the live vector's — table geometry is part of the
 * machine configuration, not of the checkpoint.
 */
template <typename T>
void
writeTable(Serializer &s, const std::vector<T> &v)
{
    static_assert(std::is_integral_v<T>);
    s.u32((uint32_t)v.size());
    for (T e : v) {
        if constexpr (sizeof(T) == 1)
            s.u8((uint8_t)e);
        else if constexpr (sizeof(T) == 2)
            s.u16((uint16_t)e);
        else if constexpr (sizeof(T) == 4)
            s.u32((uint32_t)e);
        else
            s.u64((uint64_t)e);
    }
}

/** Throws CheckpointError on a length mismatch (see writeTable). */
void checkTableLength(uint32_t stored, size_t live, const char *what);

template <typename T>
void
readTable(Deserializer &d, std::vector<T> &v, const char *what)
{
    static_assert(std::is_integral_v<T>);
    checkTableLength(d.u32(), v.size(), what);
    for (T &e : v) {
        if constexpr (sizeof(T) == 1)
            e = (T)d.u8();
        else if constexpr (sizeof(T) == 2)
            e = (T)d.u16();
        else if constexpr (sizeof(T) == 4)
            e = (T)d.u32();
        else
            e = (T)d.u64();
    }
}

} // namespace pubs

#endif // PUBS_COMMON_SERIALIZE_HH
