/**
 * @file
 * Compiler branch hints for branches the PR-9 CPI stack and host
 * profiler showed to be heavily biased (null telemetry/pipeview/checker
 * pointers, valid in-flight slots, cache hits). Pure host-speed hints:
 * they cannot change simulated behaviour, only code layout.
 */

#ifndef PUBS_COMMON_HINTS_HH
#define PUBS_COMMON_HINTS_HH

#if defined(__GNUC__) || defined(__clang__)
#define PUBS_LIKELY(x) __builtin_expect(!!(x), 1)
#define PUBS_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define PUBS_LIKELY(x) (x)
#define PUBS_UNLIKELY(x) (x)
#endif

#endif // PUBS_COMMON_HINTS_HH
