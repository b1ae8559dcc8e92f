#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/error.hh"

namespace pubs
{

namespace
{

void
vreport(const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // namespace

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    // Render "file:line: message" into a string and throw it; callers
    // that let it escape main() still see the message via terminate().
    char head[256];
    std::snprintf(head, sizeof(head), "%s:%d: ", file, line);

    va_list args;
    va_start(args, fmt);
    va_list measure;
    va_copy(measure, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    std::vector<char> body(needed > 0 ? (size_t)needed + 1 : 1, '\0');
    if (needed > 0)
        std::vsnprintf(body.data(), body.size(), fmt, args);
    va_end(args);

    throw SimError(SimError::Kind::Fatal,
                   std::string(head) + body.data());
}

void
warnImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn: ", fmt, args);
    va_end(args);
}

void
informImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("info: ", fmt, args);
    va_end(args);
}

} // namespace pubs
