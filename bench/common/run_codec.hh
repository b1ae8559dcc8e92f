/**
 * @file
 * Bit-exact serialization of one sweep outcome (SweepRow: RunResult +
 * error info, including the full PipelineStats histograms) into a byte
 * payload, used both by the proc-pool pipe frames and by sweep-journal
 * records. It is written and read through common/serialize.hh, the
 * counters by walking the PipelineStats and BranchSiteStats field
 * lists. Doubles travel as raw IEEE-754 bit patterns, so a decoded row
 * renders byte-identically to the in-process original — the sweep
 * engine's determinism contract survives the process boundary and a
 * journal round trip.
 */

#ifndef PUBS_BENCH_COMMON_RUN_CODEC_HH
#define PUBS_BENCH_COMMON_RUN_CODEC_HH

#include <string>

#include "common/bench_util.hh"

namespace pubs::bench
{

/** Serialize @p row (schema versioned; see run_codec.cc). */
std::string encodeSweepRow(const SweepRow &row);

/**
 * Decode @p payload into @p row.
 * @return true on success; false (with @p error set when non-null) on a
 * short, overlong, unknown-version or malformed payload. @p row is
 * unspecified on failure.
 */
bool decodeSweepRow(const std::string &payload, SweepRow &row,
                    std::string *error = nullptr);

} // namespace pubs::bench

#endif // PUBS_BENCH_COMMON_RUN_CODEC_HH
