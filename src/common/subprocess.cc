#include "common/subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/error.hh"
#include "common/serialize.hh"

namespace pubs::proc
{

namespace
{

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::string
encodeFrame(const std::string &payload)
{
    Serializer frame;
    frame.u32(frameMagic);
    frame.u32((uint32_t)payload.size());
    frame.u32(crc32(payload));
    frame.bytes(payload.data(), payload.size());
    return frame.data();
}

FrameStatus
nextFrame(std::string &buffer, std::string &payload)
{
    payload.clear();
    if (buffer.size() < frameHeaderBytes) {
        // A prefix of the header could still become valid — unless the
        // magic already disagrees.
        Serializer magic;
        magic.u32(frameMagic);
        size_t n = std::min(buffer.size(), magic.size());
        return buffer.compare(0, n, magic.data(), 0, n) == 0
                   ? FrameStatus::Truncated
                   : FrameStatus::Corrupt;
    }
    Deserializer header(buffer.data(), frameHeaderBytes);
    if (header.u32() != frameMagic)
        return FrameStatus::Corrupt;
    uint32_t length = header.u32();
    uint32_t crc = header.u32();
    if (length > frameMaxPayload)
        return FrameStatus::Corrupt;
    if (buffer.size() < frameHeaderBytes + (size_t)length)
        return FrameStatus::Truncated;
    if (crc32(buffer.data() + frameHeaderBytes, (size_t)length) != crc)
        return FrameStatus::Corrupt;
    payload.assign(buffer, frameHeaderBytes, length);
    buffer.erase(0, frameHeaderBytes + (size_t)length);
    return FrameStatus::Ok;
}

Child
spawnChild(const std::function<void(int writeFd)> &fn)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        throw ProcError(std::string("cannot create worker pipe: ") +
                        std::strerror(errno));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        int saved = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        throw ProcError(std::string("cannot fork worker: ") +
                        std::strerror(saved));
    }
    if (pid == 0) {
        // Worker. Keep only the write end; never return into the
        // parent's stack frames, stdio buffers, or atexit handlers.
        ::close(fds[0]);
        try {
            fn(fds[1]);
        } catch (...) {
            ::_exit(3);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    return Child{pid, fds[0]};
}

void
writeAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        off += (size_t)n;
    }
}

std::string
describeStatus(int status)
{
    char buf[96];
    if (WIFEXITED(status)) {
        std::snprintf(buf, sizeof(buf), "exited %d", WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        std::snprintf(buf, sizeof(buf), "killed by signal %d (%s)", sig,
                      strsignal(sig));
    } else {
        std::snprintf(buf, sizeof(buf), "unknown wait status 0x%x",
                      status);
    }
    return buf;
}

bool
FaultPlan::roll(double rate, uint64_t index, uint64_t attempt,
                uint64_t stream) const
{
    if (rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    uint64_t h = splitmix64(seed ^ splitmix64(index * 0x100000001b3ull ^
                                              attempt * 0x9e3779b1ull ^
                                              stream));
    // Top 53 bits -> uniform double in [0, 1).
    double u = (double)(h >> 11) * 0x1.0p-53;
    return u < rate;
}

bool
parseFaultPlan(const std::string &spec, FaultPlan &out, std::string &error)
{
    out = FaultPlan{};
    error.clear();
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        std::string directive = spec.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (directive.empty())
            continue;

        // Split "name[:a[:b]]".
        std::string fields[3];
        size_t nFields = 0;
        size_t pos = 0;
        while (nFields < 3) {
            size_t colon = directive.find(':', pos);
            fields[nFields++] = directive.substr(
                pos, colon == std::string::npos ? std::string::npos
                                                : colon - pos);
            if (colon == std::string::npos)
                break;
            pos = colon + 1;
        }

        auto parseNumber = [&](const std::string &text, double &value) {
            char *end = nullptr;
            value = std::strtod(text.c_str(), &end);
            return end != text.c_str() && *end == '\0';
        };

        const std::string &name = fields[0];
        if (name == "killafter") {
            double n = 0.0;
            if (nFields < 2 || !parseNumber(fields[1], n) || n < 1.0) {
                error = "killafter wants a positive count, got '" +
                        directive + "'";
                return false;
            }
            out.killAfter = (uint64_t)n;
            continue;
        }

        double rate = 1.0;
        if (nFields >= 2 && !fields[1].empty()) {
            if (!parseNumber(fields[1], rate) || rate < 0.0 ||
                rate > 1.0) {
                error = "bad rate in '" + directive +
                        "' (want 0.0 .. 1.0)";
                return false;
            }
        }
        if (nFields >= 3 && !fields[2].empty()) {
            double seed = 0.0;
            if (!parseNumber(fields[2], seed) || seed < 0.0) {
                error = "bad seed in '" + directive + "'";
                return false;
            }
            out.seed = (uint64_t)seed;
        }

        if (name == "crash") {
            out.crashRate = rate;
        } else if (name == "hang") {
            out.hangRate = rate;
        } else if (name == "corrupt") {
            out.corruptRate = rate;
        } else {
            error = "unknown fault kind '" + name +
                    "' (want crash, hang, corrupt, or killafter)";
            return false;
        }
    }
    return true;
}

} // namespace pubs::proc
