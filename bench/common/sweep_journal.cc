#include "common/sweep_journal.hh"

#include <cerrno>
#include <cstring>

#include <signal.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace pubs::bench
{

namespace
{

constexpr char journalMagic[8] = {'P', 'U', 'B', 'S', 'J', 'N', 'L', '1'};
constexpr uint32_t journalVersion = 1;
constexpr uint32_t recordMagic = 0x43455242u; // "BREC" little-endian
constexpr size_t headerBytes = 32;
constexpr size_t recordHeaderBytes = 20;

/** Does journal @p header name this format, @p specKey and @p slots? */
bool
headerMatches(const char (&header)[headerBytes], uint64_t specKey,
              uint64_t slots)
{
    Deserializer d(header, sizeof(header));
    char magic[sizeof(journalMagic)];
    d.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, journalMagic, sizeof(magic)) != 0 ||
        d.u32() != journalVersion)
        return false;
    (void)d.u32(); // reserved
    return d.u64() == specKey && d.u64() == slots;
}

} // namespace

SweepJournal::SweepJournal(std::string path, uint64_t specKey,
                           uint64_t slots, bool resume, uint64_t killAfter)
    : path_(std::move(path)), specKey_(specKey), slots_(slots),
      payloads_(slots), present_(slots, false), killAfter_(killAfter)
{
    load(resume);
}

SweepJournal::~SweepJournal()
{
    if (file_)
        std::fclose(file_);
}

void
SweepJournal::load(bool resume)
{
    // Recover the valid prefix of an existing journal (resume mode).
    long validBytes = headerBytes;
    bool keep = false;
    if (resume) {
        std::FILE *in = std::fopen(path_.c_str(), "rb");
        if (in) {
            char header[headerBytes];
            if (std::fread(header, 1, sizeof(header), in) ==
                    sizeof(header) &&
                headerMatches(header, specKey_, slots_)) {
                keep = true;
                for (;;) {
                    char rec[recordHeaderBytes];
                    if (std::fread(rec, 1, sizeof(rec), in) != sizeof(rec))
                        break; // torn tail: header cut short
                    Deserializer d(rec, sizeof(rec));
                    if (d.u32() != recordMagic)
                        break;
                    uint64_t slot = d.u64();
                    uint32_t length = d.u32();
                    uint32_t crc = d.u32();
                    if (slot >= slots_ || length > (64u << 20))
                        break;
                    std::string payload(length, '\0');
                    if (length &&
                        std::fread(payload.data(), 1, length, in) !=
                            length) {
                        break; // torn tail: payload cut short
                    }
                    if (crc32(payload) != crc)
                        break; // bit rot or torn write
                    if (!present_[(size_t)slot])
                        ++loaded_;
                    present_[(size_t)slot] = true;
                    payloads_[(size_t)slot] = std::move(payload);
                    validBytes += (long)(recordHeaderBytes + length);
                }
                long end = -1;
                if (std::fseek(in, 0, SEEK_END) == 0)
                    end = std::ftell(in);
                if (end >= 0 && end != validBytes) {
                    warn("sweep journal '%s': discarding %ld bytes of "
                         "torn/corrupt tail after %zu valid records",
                         path_.c_str(), end - validBytes, loaded_);
                }
            } else {
                warn("sweep journal '%s' does not match this sweep "
                     "(different spec, budgets, or format); starting "
                     "fresh",
                     path_.c_str());
            }
            std::fclose(in);
        }
    }

    if (keep) {
        // Drop the torn tail, then append after the valid prefix.
        if (::truncate(path_.c_str(), validBytes) != 0) {
            warn("sweep journal '%s': cannot truncate torn tail: %s",
                 path_.c_str(), std::strerror(errno));
        }
        file_ = std::fopen(path_.c_str(), "ab");
        if (!file_) {
            throw SimError(SimError::Kind::Fatal,
                           "cannot reopen sweep journal '" + path_ +
                               "': " + std::strerror(errno));
        }
        return;
    }

    loaded_ = 0;
    std::fill(present_.begin(), present_.end(), false);
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) {
        throw SimError(SimError::Kind::Fatal,
                       "cannot create sweep journal '" + path_ +
                           "': " + std::strerror(errno));
    }
    Serializer header;
    header.bytes(journalMagic, sizeof(journalMagic));
    header.u32(journalVersion);
    header.u32(0); // reserved
    header.u64(specKey_);
    header.u64(slots_);
    if (std::fwrite(header.data().data(), 1, header.size(), file_) !=
            header.size() ||
        std::fflush(file_) != 0) {
        warn("sweep journal '%s': cannot write header: %s (journaling "
             "disabled)",
             path_.c_str(), std::strerror(errno));
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
SweepJournal::has(size_t slot) const
{
    return slot < present_.size() && present_[slot];
}

const std::string &
SweepJournal::payload(size_t slot) const
{
    return payloads_.at(slot);
}

void
SweepJournal::record(size_t slot, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_ || slot >= slots_)
        return;
    Serializer rec;
    rec.u32(recordMagic);
    rec.u64(slot);
    rec.u32((uint32_t)payload.size());
    rec.u32(crc32(payload));
    rec.bytes(payload.data(), payload.size());
    // One fwrite per record, then flush + fdatasync: the record is
    // durable before the sweep moves on, and a torn append is confined
    // to the (CRC-guarded) tail.
    if (std::fwrite(rec.data().data(), 1, rec.size(), file_) !=
            rec.size() ||
        std::fflush(file_) != 0) {
        warn("sweep journal '%s': append failed: %s (resumability lost "
             "from here)",
             path_.c_str(), std::strerror(errno));
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    ::fdatasync(::fileno(file_));

    ++commits_;
    if (killAfter_ && commits_ >= killAfter_) {
        // Deterministic mid-sweep kill -9 for tests and CI: the record
        // just committed survives, everything in flight is lost.
        ::raise(SIGKILL);
    }
}

} // namespace pubs::bench
