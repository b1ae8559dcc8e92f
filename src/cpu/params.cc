#include "cpu/params.hh"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>
#include <type_traits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "cpu/fu_pool.hh"

namespace pubs::cpu
{

const char *
sizeClassName(SizeClass size)
{
    switch (size) {
      case SizeClass::Small: return "small";
      case SizeClass::Medium: return "medium";
      case SizeClass::Large: return "large";
      case SizeClass::Huge: return "huge";
    }
    panic("unknown size class %d", (int)size);
}

CoreParams
CoreParams::scaled(SizeClass size)
{
    CoreParams p;
    switch (size) {
      case SizeClass::Small:
        p.fetchWidth = p.decodeWidth = p.issueWidth = p.commitWidth = 2;
        p.iqEntries = 32;
        p.robEntries = 64;
        p.lsqEntries = 32;
        p.intPhysRegs = p.fpPhysRegs = 64;
        p.numIntAlu = 1;
        p.numIntMulDiv = 1;
        p.numLdSt = 1;
        p.numFpu = 1;
        break;
      case SizeClass::Medium:
        // Table I defaults.
        break;
      case SizeClass::Large:
        p.fetchWidth = p.decodeWidth = p.issueWidth = p.commitWidth = 6;
        p.iqEntries = 128;
        p.robEntries = 256;
        p.lsqEntries = 128;
        p.intPhysRegs = p.fpPhysRegs = 256;
        p.numIntAlu = 3;
        p.numIntMulDiv = 2;
        p.numLdSt = 3;
        p.numFpu = 3;
        break;
      case SizeClass::Huge:
        p.fetchWidth = p.decodeWidth = p.issueWidth = p.commitWidth = 8;
        p.iqEntries = 192;
        p.robEntries = 384;
        p.lsqEntries = 192;
        p.intPhysRegs = p.fpPhysRegs = 384;
        p.numIntAlu = 4;
        p.numIntMulDiv = 2;
        p.numLdSt = 4;
        p.numFpu = 4;
        break;
    }
    return p;
}

namespace
{

constexpr ParamRange atLeast(uint64_t min) { return {min}; }
constexpr ParamRange between(uint64_t lo, uint64_t hi) { return {lo, hi}; }
constexpr ParamRange powerOfTwo{1, UINT64_MAX, true};
/** Up to @p last, an enum's last enumerator. */
constexpr ParamRange upTo(auto last) { return {0, (uint64_t)last}; }

constexpr auto Functional = ParamClass::Functional;
constexpr auto Timing = ParamClass::Timing;

const bool *ifPubs(const CoreParams &p) { return &p.usePubs; }
const bool *ifPrefetch(const CoreParams &p) { return &p.memory.prefetch; }

// One row per field, named by the path that reaches it. The ranges are
// what validate() and the components' constructors accept; rules that
// relate several fields are in validationErrors().
#define PARAM(path, ...)                                                     \
    ParamRow{#path,                                                          \
             [](const CoreParams &p) -> ParamField { return &p.path; },      \
             __VA_ARGS__}
#define CACHE_PARAMS(cache)                                                  \
    PARAM(memory.cache.name, Functional),                                    \
        PARAM(memory.cache.sizeBytes, Functional),                           \
        PARAM(memory.cache.ways, Functional, between(1, 32)),                \
        PARAM(memory.cache.lineBytes, Functional, powerOfTwo),               \
        PARAM(memory.cache.hitLatency, Timing),                              \
        PARAM(memory.cache.mshrs, Timing, atLeast(1))

constexpr ParamRow paramRows[] = {
    PARAM(fetchWidth, Timing, atLeast(1)),
    PARAM(decodeWidth, Timing, atLeast(1)),
    PARAM(issueWidth, Timing, atLeast(1)),
    PARAM(commitWidth, Timing, atLeast(1)),
    PARAM(robEntries, Timing, atLeast(1)),
    PARAM(iqEntries, Timing, atLeast(1)),
    PARAM(lsqEntries, Timing, atLeast(1)),
    // Rename needs a free register beyond the architectural ones.
    PARAM(intPhysRegs, Timing, atLeast(numIntRegs + 1)),
    PARAM(fpPhysRegs, Timing, atLeast(numFpRegs + 1)),
    PARAM(frontendDepth, Timing, atLeast(1)),
    PARAM(recoveryPenalty, Timing),
    PARAM(btbMissPenalty, Timing),
    PARAM(numIntAlu, Timing, atLeast(1)),
    PARAM(numIntMulDiv, Timing, atLeast(1)),
    PARAM(numLdSt, Timing, atLeast(1)),
    PARAM(numFpu, Timing, atLeast(1)),
    PARAM(predictor, Functional,
          upTo(branch::PredictorKind::PerceptronLarge)),
    PARAM(btbSets, Functional, powerOfTwo),
    PARAM(btbWays, Functional, atLeast(1)),
    PARAM(rasDepth, Functional, atLeast(1)),
    PARAM(iqKind, Timing, upTo(iq::IqKind::Circular)),
    PARAM(ageMatrix, Timing),
    PARAM(distributedIq, Timing),
    PARAM(idealPrioritySelect, Timing),
    PARAM(usePubs, Functional),
    PARAM(pubs.priorityEntries, Timing),
    PARAM(pubs.stallPolicy, Timing),
    PARAM(pubs.confCounterBits, Functional, between(1, 16), ifPubs),
    PARAM(pubs.counterShape, Functional, upTo(pubs::CounterShape::UpDown),
          ifPubs),
    PARAM(pubs.confSets, Functional, powerOfTwo, ifPubs),
    PARAM(pubs.confWays, Functional, atLeast(1), ifPubs),
    PARAM(pubs.brsliceSets, Functional, powerOfTwo, ifPubs),
    PARAM(pubs.brsliceWays, Functional, atLeast(1), ifPubs),
    PARAM(pubs.brsliceHashBits, Functional),
    PARAM(pubs.confHashBits, Functional),
    PARAM(pubs.useConfTab, Functional),
    PARAM(pubs.modeSwitch, Functional),
    PARAM(pubs.modeInterval, Functional, atLeast(1), ifPubs),
    PARAM(pubs.modeMpkiThreshold, Functional),
    PARAM(pubs.tagless, Functional),
    PARAM(pubs.fullTags, Functional),
    CACHE_PARAMS(l1i),
    CACHE_PARAMS(l1d),
    CACHE_PARAMS(l2),
    PARAM(memory.memLatency, Timing),
    PARAM(memory.memBytesPerCycle, Timing, atLeast(1)),
    PARAM(memory.prefetch, Functional),
    PARAM(memory.prefetcher.streams, Functional, atLeast(1), ifPrefetch),
    PARAM(memory.prefetcher.distanceLines, Functional),
    PARAM(memory.prefetcher.degree, Functional),
    PARAM(memory.nextLineIPrefetch, Functional),
    PARAM(seed, Timing),
    PARAM(telemetry, Timing),
    PARAM(heartbeatInterval, ParamClass::Observational),
    PARAM(checkPolicy, Timing, upTo(CheckPolicy::Abort)),
    PARAM(auditPolicy, Timing, upTo(CheckPolicy::Abort)),
    PARAM(auditInterval, Timing),
};

#undef CACHE_PARAMS
#undef PARAM

/** Converts to anything, so T{AnyField{}...} counts T's fields. */
struct AnyField
{
    template <typename T> operator T() const;
};

template <typename T, typename... Fields>
constexpr size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// A field added without a row fails the build. Every field has a row
// but the six that hold a struct (CoreParams::pubs and ::memory,
// MemoryParams's caches and prefetcher); their fields have rows.
static_assert(std::size(paramRows) ==
              fieldCount<CoreParams>() + fieldCount<pubs::PubsParams>() +
                  fieldCount<mem::MemoryParams>() +
                  3 * fieldCount<mem::CacheParams>() +
                  fieldCount<mem::StreamPrefetcherParams>() - 2 - 4);

/** The value of an integer-valued (bool, enum, integer) row. */
uint64_t
valueOf(const ParamRow &row, const CoreParams &params)
{
    return std::visit(
        [](auto *field) -> uint64_t {
            using T = std::remove_cvref_t<decltype(*field)>;
            if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
                return (uint64_t)*field;
            panic("parameter has no integer value");
        },
        row.field(params));
}

/** "name=value\n" for each row of @p params whose class @p wanted. */
std::string
renderRows(const CoreParams &params, bool (*wanted)(ParamClass))
{
    std::string out;
    for (const ParamRow &row : paramRows) {
        if (!wanted(row.cls))
            continue;
        out += std::string(row.name) + "=";
        std::visit(
            [&out](auto *field) {
                using T = std::remove_cvref_t<decltype(*field)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    out += *field;
                } else if constexpr (std::is_same_v<T, double>) {
                    // The shortest text that reads back as this double.
                    char buf[32] = {};
                    out.append(buf, std::to_chars(buf, buf + 32, *field).ptr);
                } else {
                    out += std::to_string((uint64_t)*field);
                }
            },
            row.field(params));
        out += "\n";
    }
    return out;
}

} // namespace

std::span<const ParamRow>
paramTable()
{
    return paramRows;
}

std::vector<std::string>
CoreParams::validationErrors() const
{
    std::vector<std::string> errors;
    auto bad = [&errors](const std::string &message) {
        errors.push_back(message);
    };

    for (const ParamRow &row : paramRows) {
        const ParamRange &range = row.range;
        if (!range.constrained() || (row.when && !*row.when(*this)))
            continue;
        uint64_t value = valueOf(row, *this);
        std::string field = std::string(row.name) + "=" +
                            std::to_string(value);
        if (range.powerOfTwo && !isPowerOf2(value))
            bad(field + " must be a power of two");
        else if (value < range.min)
            bad(field + " must be at least " + std::to_string(range.min));
        else if (value > range.max)
            bad(field + " must be at most " + std::to_string(range.max));
    }

    if (ageMatrix && iqKind != iq::IqKind::Random) {
        bad("ageMatrix=true needs iqKind=random: the age matrix models "
            "select priority on the random queue only");
    }
    if (usePubs && iqKind != iq::IqKind::Random) {
        bad("usePubs=true needs iqKind=random: PUBS partitions the "
            "random queue (use --iq random or disable PUBS)");
    }
    if (usePubs && pubs.priorityEntries >= iqEntries) {
        bad("pubs.priorityEntries=" +
            std::to_string(pubs.priorityEntries) +
            " must leave normal entries in a " +
            std::to_string(iqEntries) +
            "-entry IQ; lower priorityEntries or grow iqEntries");
    }
    if (idealPrioritySelect && !usePubs) {
        bad("idealPrioritySelect=true needs usePubs=true: the ideal "
            "select still classifies via the PUBS slice unit");
    }

    if (distributedIq) {
        if (iqKind != iq::IqKind::Random)
            bad("distributedIq=true needs iqKind=random sub-queues");
        if (ageMatrix)
            bad("distributedIq=true cannot be combined with the age "
                "matrix (not modelled); disable one of them");
        unsigned perQueue = iqEntries / (unsigned)FuType::NumTypes;
        if (perQueue < 2) {
            bad("distributedIq needs iqEntries >= " +
                std::to_string(2 * (unsigned)FuType::NumTypes) +
                " so each of the " +
                std::to_string((unsigned)FuType::NumTypes) +
                " sub-queues gets at least 2 entries (have " +
                std::to_string(iqEntries) + ")");
        } else if (usePubs && pubs.priorityEntries > 0 &&
                   std::max(1u, pubs.priorityEntries / 2) >= perQueue) {
            bad("distributed priority partition too large: "
                "priorityEntries/2=" +
                std::to_string(std::max(1u, pubs.priorityEntries / 2)) +
                " must be below the " + std::to_string(perQueue) +
                "-entry sub-queues; lower pubs.priorityEntries");
        }
    }

    // The ways and the line size have their own rows; here only how the
    // size divides into sets.
    auto checkCache = [&bad](const std::string &name,
                             const mem::CacheParams &c) {
        uint64_t setBytes = (uint64_t)c.ways * c.lineBytes;
        if (setBytes == 0)
            return;
        std::string size = name + ".sizeBytes=" + std::to_string(c.sizeBytes);
        if (c.sizeBytes % setBytes != 0) {
            bad(size + " must be a multiple of ways*lineBytes (" +
                std::to_string(c.ways) + "*" + std::to_string(c.lineBytes) +
                ")");
        } else if (!isPowerOf2(c.sizeBytes / setBytes)) {
            bad(size + " gives " + std::to_string(c.sizeBytes / setBytes) +
                " sets; the set count must be a power of two");
        }
    };
    checkCache("memory.l1i", memory.l1i);
    checkCache("memory.l1d", memory.l1d);
    checkCache("memory.l2", memory.l2);

    if (auditPolicy != CheckPolicy::Off && auditInterval == 0) {
        bad("auditInterval must be non-zero when the structural audit "
            "is enabled");
    }

    return errors;
}

void
CoreParams::validate() const
{
    std::vector<std::string> errors = validationErrors();
    if (errors.empty())
        return;
    std::string message = "invalid core configuration (" +
                          std::to_string(errors.size()) + " problem" +
                          (errors.size() == 1 ? "" : "s") + "):";
    for (const std::string &error : errors)
        message += "\n  - " + error;
    throw ConfigError(message);
}

std::string
CoreParams::describe() const
{
    std::ostringstream out;
    out << "Pipeline width    " << fetchWidth
        << "-wide fetch/decode/issue/commit\n"
        << "Reorder buffer    " << robEntries << " entries\n"
        << "IQ                " << iqEntries << " entries ("
        << iq::iqKindName(iqKind) << (ageMatrix ? ", age matrix" : "")
        << ")\n"
        << "Load/store queue  " << lsqEntries << " entries\n"
        << "Physical regs     " << intPhysRegs << "(int) + " << fpPhysRegs
        << "(fp)\n"
        << "Branch predictor  " << branch::predictorKindName(predictor)
        << ", " << btbSets << "-set " << btbWays << "-way BTB, "
        << recoveryPenalty << "-cycle recovery penalty\n"
        << "Function units    " << numIntAlu << " iALU, " << numIntMulDiv
        << " iMULT/DIV, " << numLdSt << " Ld/St, " << numFpu << " FPU\n"
        << "L1 I-cache        " << memory.l1i.sizeBytes / 1024 << "KB, "
        << memory.l1i.ways << "-way, " << memory.l1i.lineBytes
        << "B line\n"
        << "L1 D-cache        " << memory.l1d.sizeBytes / 1024 << "KB, "
        << memory.l1d.ways << "-way, " << memory.l1d.lineBytes
        << "B line, " << memory.l1d.hitLatency << "-cycle hit\n"
        << "L2 cache          " << memory.l2.sizeBytes / 1024 / 1024
        << "MB, " << memory.l2.ways << "-way, " << memory.l2.hitLatency
        << "-cycle hit\n"
        << "Main memory       " << memory.memLatency
        << "-cycle min. latency, " << memory.memBytesPerCycle
        << "B/cycle bandwidth\n"
        << "Data prefetch     "
        << (memory.prefetch ? "stream-based" : "disabled");
    if (memory.prefetch) {
        out << ": " << memory.prefetcher.streams << "-stream, "
            << memory.prefetcher.distanceLines << "-line distance, "
            << memory.prefetcher.degree << "-line degree, into L2";
    }
    out << "\n";
    if (usePubs) {
        out << "PUBS              " << pubs.priorityEntries
            << " priority entries ("
            << (pubs.stallPolicy ? "stall" : "non-stall") << "), "
            << pubs.confCounterBits << "-bit resetting counters, "
            << "conf_tab " << pubs.confSets << "x" << pubs.confWays
            << " (q=" << pubs.confHashBits << "), brslice_tab "
            << pubs.brsliceSets << "x" << pubs.brsliceWays << " (q="
            << pubs.brsliceHashBits << "), mode switch "
            << (pubs.modeSwitch ? "on" : "off") << " (threshold "
            << pubs.modeMpkiThreshold << " LLC MPKI / "
            << pubs.modeInterval << "-inst interval)\n";
    }
    return out.str();
}

std::string
CoreParams::key() const
{
    return renderRows(*this, [](ParamClass cls) {
        return cls != ParamClass::Observational;
    });
}

std::string
CoreParams::describeFunctional() const
{
    return renderRows(*this, [](ParamClass cls) {
        return cls == ParamClass::Functional;
    });
}

} // namespace pubs::cpu
