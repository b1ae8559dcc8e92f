/**
 * @file
 * Error and status reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a simulator bug); the
 *            simulated state cannot be trusted, so the process aborts.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            corrupt input). Throws pubs::SimError so batch drivers can
 *            report the failing run, skip it, and continue; an uncaught
 *            fatal still terminates the process with the message.
 * warn()   — something is modelled approximately; simulation continues.
 * inform() — plain status output.
 */

#ifndef PUBS_COMMON_LOGGING_HH
#define PUBS_COMMON_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <string>

namespace pubs
{

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Throws pubs::SimError (Kind::Fatal). */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace pubs

#define panic(...) ::pubs::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::pubs::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::pubs::warnImpl(__VA_ARGS__)
#define inform(...) ::pubs::informImpl(__VA_ARGS__)

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            panic(__VA_ARGS__);                                              \
    } while (0)

/** fatal() if the condition holds. */
#define fatal_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            fatal(__VA_ARGS__);                                              \
    } while (0)

/** warn() if the condition holds. */
#define warn_if(cond, ...)                                                   \
    do {                                                                     \
        if (cond)                                                            \
            warn(__VA_ARGS__);                                               \
    } while (0)

/** warn() only the first time this site is reached (thread-safe: sweep
 *  runs hit shared sites from many pool workers concurrently). */
#define warn_once(...)                                                       \
    do {                                                                     \
        static std::atomic<bool> warned_once_{false};                        \
        if (!warned_once_.exchange(true, std::memory_order_relaxed))         \
            warn(__VA_ARGS__);                                               \
    } while (0)

/** warn_once() if the condition holds. */
#define warn_if_once(cond, ...)                                              \
    do {                                                                     \
        if (cond)                                                            \
            warn_once(__VA_ARGS__);                                          \
    } while (0)

#endif // PUBS_COMMON_LOGGING_HH
