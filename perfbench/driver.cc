/**
 * @file
 * In-process driver of the repository benchmark (see README.md here).
 *
 * It runs one workload's simulations straight through on one thread,
 * through the simulator's public API only (wl::makeWorkload,
 * sim::makeConfig, sim::Simulator and the component headers), and
 * prints one JSON document on stdout for run.py to check and aggregate:
 *
 *   perfbench_driver --programs a,b,.. --machines base,pubs --seed N
 *                    --warmup W --measure M
 *                    [--windows K --period P --store DIR] [--trace PATH]
 *
 * Without --trace the run set is one end-to-end repetition. With
 * --trace every call into a module is timed from outside and recorded
 * as a span (written to PATH as Chrome trace-event JSON at exit), the
 * emulator is timed through an instruction source that forwards to
 * Emulator::next, and each run's correct-path instruction stream is then
 * replayed through the branch predictor, the PUBS slice unit, the random
 * issue queue and the memory hierarchy to time those layers in
 * isolation. --windows runs each simulation through sim::simulateSampled
 * (warmup and measure split evenly over the windows) with the
 * content-addressed checkpoint store in --store, which must start empty.
 * With --trace each sampled run is also probed at the one window
 * distance, --period: a checkpoint store lookup before the run (cold)
 * and after it (warm), Simulator::fastForward, saveCheckpoint plus
 * CheckpointStore::save, and restoreCheckpoint, each timed on its own.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "branch/predictor.hh"
#include "common/stats.hh"
#include "emu/emulator.hh"
#include "iq/random_queue.hh"
#include "mem/memory_system.hh"
#include "pubs/slice_unit.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace
{

namespace branch = pubs::branch;
namespace cpu = pubs::cpu;
namespace emu = pubs::emu;
namespace iq = pubs::iq;
namespace isa = pubs::isa;
namespace mem = pubs::mem;
namespace sim = pubs::sim;
namespace trace = pubs::trace;
namespace wl = pubs::wl;
using SliceUnit = pubs::pubs::SliceUnit;
using Clock = std::chrono::steady_clock;

uint64_t
nowNs()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsBetween(uint64_t startNs, uint64_t endNs)
{
    return (double)(endNs - startNs) * 1e-9;
}

std::string
jsonString(const std::string &text)
{
    return "\"" + pubs::jsonEscape(text) + "\"";
}

/** A number with every digit it has (pubs::jsonNumber keeps 9). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

struct Options
{
    std::vector<std::string> programs;
    std::vector<std::string> machines;
    uint64_t seed = 1;
    uint64_t warmup = 0;
    uint64_t measure = 0;
    uint64_t windows = 0; ///< 0 = straight-through runs
    uint64_t period = 0;
    std::string store;
    std::string tracePath; ///< empty = untraced repetition
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --programs a,b --machines "
                 "base,pubs --seed N --warmup W --measure M [--windows K "
                 "--period P --store DIR] [--trace PATH]\n",
                 problem.c_str());
    std::exit(2);
}

uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno || !end || *end || text[0] == '-')
        usage(std::string("bad value for ") + flag + ": " + text);
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--programs")
            options.programs = splitList(value);
        else if (flag == "--machines")
            options.machines = splitList(value);
        else if (flag == "--seed")
            options.seed = parseCount("--seed", value);
        else if (flag == "--warmup")
            options.warmup = parseCount("--warmup", value);
        else if (flag == "--measure")
            options.measure = parseCount("--measure", value);
        else if (flag == "--windows")
            options.windows = parseCount("--windows", value);
        else if (flag == "--period")
            options.period = parseCount("--period", value);
        else if (flag == "--store")
            options.store = value;
        else if (flag == "--trace")
            options.tracePath = value;
        else
            usage("unknown option " + flag);
    }
    if (options.programs.empty() || options.machines.empty())
        usage("--programs and --machines are required");
    if (options.measure == 0)
        usage("--measure must be positive");
    if (options.windows && (options.period == 0 || options.store.empty()))
        usage("--windows needs --period and --store");
    return options;
}

cpu::CoreParams
machineParams(const std::string &machine)
{
    if (machine == "base")
        return sim::makeConfig(sim::Machine::Base);
    if (machine == "pubs")
        return sim::makeConfig(sim::Machine::Pubs);
    usage("unknown machine " + machine);
}

// --- spans ---------------------------------------------------------------

/**
 * Spans held in memory and written once, as Chrome trace-event JSON. It
 * is separate from the simulator's own profiler (common/profiler), so
 * that the spans time calls from outside and do not change when the
 * profiler does.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(nowNs()) {}

    bool enabled() const { return enabled_; }

    /** RAII span around one call into the simulator. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name, const std::string &args)
            : tracer_(tracer), name_(name), args_(args), start_(nowNs())
        {}

        ~Span()
        {
            if (tracer_.enabled_)
                tracer_.spans_.push_back({name_, args_, start_, nowNs()});
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        const char *name_;
        std::string args_;
        uint64_t start_;
    };

    /** Write the recorded spans to @p path; false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (!file)
            return false;
        std::fputs("{\"traceEvents\": [", file);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Record &span = spans_[i];
            std::fprintf(
                file,
                "%s\n{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"X\", "
                "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": 1, "
                "\"args\": {\"run\": %s}}",
                i ? "," : "", jsonString(span.name).c_str(),
                jsonNumber((double)(span.start - origin_) / 1000.0).c_str(),
                jsonNumber((double)(span.end - span.start) / 1000.0).c_str(),
                jsonString(span.args).c_str());
        }
        std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", file);
        return std::fclose(file) == 0;
    }

  private:
    struct Record
    {
        const char *name;
        std::string args;
        uint64_t start;
        uint64_t end;
    };

    bool enabled_;
    uint64_t origin_;
    std::vector<Record> spans_;
};

// --- emulator timing -------------------------------------------------------

/**
 * The functional emulator, with every sampleEvery-th next() timed. Timing
 * one call in sixteen keeps the clock reads' cost under a few nanoseconds
 * per instruction; the estimate scales the sampled time up and subtracts
 * the measured cost of an empty clock-read pair.
 */
class TimedEmulator : public emu::Emulator
{
  public:
    enum Phase
    {
        Warmup,
        Measure,
        NumPhases,
    };

    static constexpr uint64_t sampleEvery = 16;

    TimedEmulator(const isa::Program &program, double clockPairNs,
                  uint64_t warmupInsts)
        : emu::Emulator(program), clockPairNs_(clockPairNs),
          phase_(warmupInsts ? Warmup : Measure), warmupInsts_(warmupInsts)
    {}

    bool
    next(trace::DynInst &out) override
    {
        Bucket &bucket = buckets_[phase_];
        bool ok;
        if (++calls_ % sampleEvery == 0) {
            uint64_t start = nowNs();
            ok = step(out);
            bucket.sampledNs += nowNs() - start;
            ++bucket.sampled;
        } else {
            ok = step(out);
        }
        bucket.steps += ok ? 1 : 0;
        // The warmup/measure boundary, seen from the source: the first
        // pull after `warmup` instructions have been handed out. Off by
        // at most the in-flight window (ROB + fetch queue).
        if (phase_ == Warmup && calls_ >= warmupInsts_)
            phase_ = Measure;
        return ok;
    }

    uint64_t
    steps() const
    {
        return buckets_[Warmup].steps + buckets_[Measure].steps;
    }

    /** Estimated emulator seconds spent in @p phase. */
    double
    seconds(Phase phase) const
    {
        const Bucket &bucket = buckets_[phase];
        if (bucket.sampled == 0)
            return 0.0;
        double perCall = (double)bucket.sampledNs / (double)bucket.sampled -
                         clockPairNs_;
        return std::max(0.0, perCall) * (double)bucket.steps * 1e-9;
    }

  private:
    struct Bucket
    {
        uint64_t steps = 0;
        uint64_t sampled = 0;
        uint64_t sampledNs = 0;
    };

    double clockPairNs_;
    Bucket buckets_[NumPhases];
    Phase phase_;
    uint64_t calls_ = 0;
    uint64_t warmupInsts_;
};

/** Median cost of two back-to-back clock reads, in nanoseconds. */
double
clockPairNs()
{
    std::vector<uint64_t> deltas(2001);
    for (uint64_t &delta : deltas) {
        uint64_t start = nowNs();
        delta = nowNs() - start;
    }
    std::nth_element(deltas.begin(), deltas.begin() + 1000, deltas.end());
    return (double)deltas[1000];
}

// --- results -------------------------------------------------------------

/**
 * The counters that define the modelled machine's behaviour, digested to
 * check a run. Host-clock fields are not among them, so the digest
 * repeats exactly on any host.
 */
using Counter = uint64_t cpu::PipelineStats::*;
constexpr Counter machineCounters[] = {
    &cpu::PipelineStats::cycles,
    &cpu::PipelineStats::committed,
    &cpu::PipelineStats::fetched,
    &cpu::PipelineStats::condBranches,
    &cpu::PipelineStats::condMispredicts,
    &cpu::PipelineStats::indirectJumps,
    &cpu::PipelineStats::indirectMispredicts,
    &cpu::PipelineStats::llcMisses,
    &cpu::PipelineStats::l1dAccesses,
    &cpu::PipelineStats::l1dMisses,
    &cpu::PipelineStats::priorityDispatches,
    &cpu::PipelineStats::normalDispatches,
    &cpu::PipelineStats::priorityStallCycles,
    &cpu::PipelineStats::iqFullStallCycles,
    &cpu::PipelineStats::robFullStallCycles,
    &cpu::PipelineStats::issued,
    &cpu::PipelineStats::misspecPenaltySum,
    &cpu::PipelineStats::misspecPenaltyCount,
    &cpu::PipelineStats::wrongPathFetched,
    &cpu::PipelineStats::squashed,
    &cpu::PipelineStats::iqWaitSum,
};

/** FNV-1a over a run's machineCounters, as 16 hex digits. */
std::string
statsDigest(const cpu::PipelineStats &s)
{
    uint64_t hash = 1469598103934665603ull;
    for (Counter counter : machineCounters) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (s.*counter >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", (unsigned long long)hash);
    return hex;
}

/** Sum @p from's machineCounters into @p into (totals over a run set). */
void
accumulate(cpu::PipelineStats &into, const cpu::PipelineStats &from)
{
    for (Counter counter : machineCounters)
        into.*counter += from.*counter;
}

/** What one run of the set produced, and what it cost on the host. */
struct RunRecord
{
    std::string program;
    std::string machine;
    std::string error; ///< empty = ran clean
    cpu::PipelineStats stats;
    double genSeconds = 0.0;
    double ctorSeconds = 0.0;
    double runSeconds = 0.0;     ///< the simulating call, whole
    double measureSeconds = 0.0; ///< RunResult::simSeconds
    double totalSeconds = 0.0;   ///< generation to teardown
    double iqOccupancy = 0.0;    ///< mean IQ occupancy (IQ replay)
    uint64_t dynamicBranches = 0;
    uint64_t unconfidentBranches = 0;
};

/** Per-layer sums over the traced run set. */
struct Layers
{
    // Checkpoint probes of a sampled pass.
    double ffSeconds = 0.0;
    uint64_t ffInsts = 0;
    uint64_t ckptBytes = 0;
    double ckptSaveSeconds = 0.0;
    double ckptRestoreSeconds = 0.0;
    uint64_t storeMisses = 0;
    uint64_t storeHits = 0;
    // The timed emulator of straight-through runs.
    uint64_t emuSteps = 0;
    double emuSeconds = 0.0;
    double emuMeasureSeconds = 0.0;
    // Replays.
    uint64_t replayBranches = 0;
    double predictSeconds = 0.0;
    uint64_t decodedInsts = 0;
    double decodeSeconds = 0.0;
    uint64_t iqOps = 0;
    double iqSeconds = 0.0;
    uint64_t memAccesses = 0;
    double dataAccessSeconds = 0.0;
    double warmAccessSeconds = 0.0;
};

// --- one run ---------------------------------------------------------------

struct RunContext
{
    const Options &options;
    Tracer &tracer;
    Layers &layers;
    double clockPairNs;
};

/** A straight-through run, warmup then measurement, over an emulator
 *  that is timed when tracing. */
void
runStraight(RunContext &ctx, const cpu::CoreParams &params,
            const isa::Program &program, const std::string &label,
            RunRecord &record)
{
    const Options &o = ctx.options;
    TimedEmulator *timed = nullptr;
    std::unique_ptr<sim::Simulator> simulator;
    uint64_t start = nowNs();
    {
        Tracer::Span span(ctx.tracer, "sim/ctor", label);
        if (ctx.tracer.enabled()) {
            auto source = std::make_unique<TimedEmulator>(
                program, ctx.clockPairNs, o.warmup);
            timed = source.get();
            simulator =
                std::make_unique<sim::Simulator>(params, std::move(source));
        } else {
            simulator = std::make_unique<sim::Simulator>(params, program);
        }
    }
    record.ctorSeconds = secondsBetween(start, nowNs());

    sim::RunResult result;
    start = nowNs();
    {
        Tracer::Span span(ctx.tracer, "sim/run", label);
        result = simulator->run(o.warmup, o.measure);
    }
    record.runSeconds = secondsBetween(start, nowNs());
    record.measureSeconds = result.simSeconds;
    accumulate(record.stats, result.pipeline);
    record.iqOccupancy = result.pipeline.iqOccupancy.mean();
    if (const SliceUnit *unit = simulator->pipeline().sliceUnit()) {
        record.dynamicBranches = unit->dynamicBranches();
        record.unconfidentBranches = unit->unconfidentBranches();
    }

    if (timed) {
        double measure = timed->seconds(TimedEmulator::Measure);
        ctx.layers.emuSteps += timed->steps();
        ctx.layers.emuSeconds +=
            timed->seconds(TimedEmulator::Warmup) + measure;
        ctx.layers.emuMeasureSeconds += measure;
    }
}

/** CheckpointStore::load as a span; counts the hit or the miss. */
void
storeLookup(RunContext &ctx, const sim::CheckpointStore &store,
            const sim::CheckpointMeta &meta, const std::string &label,
            std::string &bytes)
{
    Tracer::Span span(ctx.tracer, "store/load", label);
    if (store.load(meta, bytes))
        ++ctx.layers.storeHits;
    else
        ++ctx.layers.storeMisses;
}

/**
 * A SMARTS-sampled run through sim::simulateSampled on the store in
 * --store. When tracing, the checkpoint work it does at the one window
 * distance is also done by direct calls and timed: fastForward and
 * saveCheckpoint before the run, with a lookup in the store that has
 * not seen the run yet; after it, a lookup that must find the same
 * checkpoint, CheckpointStore::save and restoreCheckpoint.
 */
void
runSampled(RunContext &ctx, const cpu::CoreParams &params,
           const isa::Program &program, const std::string &label,
           const std::string &machine, RunRecord &record)
{
    const Options &o = ctx.options;
    Layers &layers = ctx.layers;
    sim::SamplePlan plan;
    plan.windows = (uint32_t)o.windows;
    plan.periodInsts = o.period;
    plan.warmupInsts = o.warmup / o.windows;
    plan.measureInsts = std::max<uint64_t>(1, o.measure / o.windows);
    sim::CheckpointStore store(o.store);
    bool probe = ctx.tracer.enabled() && o.windows > 1;

    std::string bytes;
    sim::CheckpointMeta meta;
    if (probe) {
        sim::Simulator warming(params, program);
        uint64_t start = nowNs();
        {
            Tracer::Span span(ctx.tracer, "sim/fastforward", label);
            layers.ffInsts += warming.fastForward(o.period);
        }
        uint64_t saveStart = nowNs();
        layers.ffSeconds += secondsBetween(start, saveStart);
        {
            Tracer::Span span(ctx.tracer, "ckpt/save", label);
            bytes = warming.saveCheckpoint(machine);
        }
        layers.ckptSaveSeconds += secondsBetween(saveStart, nowNs());
        layers.ckptBytes += bytes.size();
        meta = sim::readCheckpointMeta(bytes);
        std::string cold;
        storeLookup(ctx, store, meta, label, cold);
    }

    sim::RunResult result;
    uint64_t start = nowNs();
    {
        Tracer::Span span(ctx.tracer, "sim/simulateSampled", label);
        result = sim::simulateSampled(params, program, plan, &store, machine);
    }
    record.runSeconds = secondsBetween(start, nowNs());
    record.measureSeconds = result.simSeconds;
    accumulate(record.stats, result.pipeline);
    if (!probe)
        return;

    std::string warm;
    storeLookup(ctx, store, meta, label, warm);
    if (warm != bytes)
        throw std::runtime_error("the checkpoint store does not hold the "
                                 "checkpoint at the window distance");
    start = nowNs();
    {
        Tracer::Span span(ctx.tracer, "store/save", label);
        store.save(meta, bytes);
    }
    layers.ckptSaveSeconds += secondsBetween(start, nowNs());
    sim::Simulator window(params, program);
    start = nowNs();
    {
        Tracer::Span span(ctx.tracer, "ckpt/restore", label);
        window.restoreCheckpoint(bytes);
    }
    layers.ckptRestoreSeconds += secondsBetween(start, nowNs());
}

// --- replays ---------------------------------------------------------------

/**
 * Replay the first @p insts correct-path instructions of @p program
 * through freshly built components, timing each component's public
 * calls: predict+update per conditional branch, decode (and confidence
 * training) per instruction on PUBS machines, dispatch+remove on a
 * random queue held at the run's mean occupancy, and the timed and warm
 * data-access paths per load/store.
 */
void
replay(RunContext &ctx, const cpu::CoreParams &params,
       const isa::Program &program, const RunRecord &record,
       uint64_t insts, const std::string &label)
{
    Layers &layers = ctx.layers;
    std::vector<trace::DynInst> stream;
    {
        Tracer::Span span(ctx.tracer, "replay/emulate", label);
        emu::Emulator emulator(program);
        stream.reserve(insts);
        trace::DynInst inst;
        while (stream.size() < insts && emulator.step(inst))
            stream.push_back(inst);
    }

    std::vector<uint8_t> correct;
    {
        Tracer::Span span(ctx.tracer, "replay/branch", label);
        auto predictor = branch::makePredictor(params.predictor);
        correct.reserve(stream.size() / 4);
        uint64_t start = nowNs();
        for (const trace::DynInst &inst : stream) {
            if (!inst.isCondBranch())
                continue;
            bool predicted = predictor->predict(inst.pc);
            predictor->update(inst.pc, inst.taken);
            correct.push_back(predicted == inst.taken);
        }
        layers.predictSeconds += secondsBetween(start, nowNs());
        layers.replayBranches += correct.size();
    }

    if (params.usePubs) {
        Tracer::Span span(ctx.tracer, "replay/pubs_decode", label);
        SliceUnit unit(params.pubs);
        size_t branchIndex = 0;
        uint64_t start = nowNs();
        for (const trace::DynInst &inst : stream) {
            unit.decode(inst);
            if (inst.isCondBranch())
                unit.branchResolved(inst.pc, correct[branchIndex++]);
        }
        layers.decodeSeconds += secondsBetween(start, nowNs());
        layers.decodedInsts += stream.size();
    }

    {
        Tracer::Span span(ctx.tracer, "replay/iq", label);
        unsigned priorityEntries =
            params.usePubs ? params.pubs.priorityEntries : 0;
        iq::RandomQueue queue(params.iqEntries, priorityEntries, params.seed);
        uint64_t dispatches = record.stats.priorityDispatches +
                              record.stats.normalDispatches;
        double priorityShare =
            dispatches ? (double)record.stats.priorityDispatches /
                             (double)dispatches
                       : 0.0;
        size_t resident = std::min<size_t>(
            (size_t)std::llround(record.iqOccupancy),
            params.iqEntries - priorityEntries - 1);
        // FIFO of resident client ids: the oldest leaves first.
        constexpr uint32_t idSpace = 1024;
        std::vector<uint32_t> fifo(idSpace);
        size_t head = 0, tail = 0;
        uint32_t nextId = 0;
        auto admit = [&](bool priority) {
            if (!queue.canDispatch(priority))
                priority = !priority;
            uint32_t id = nextId++ % idSpace;
            queue.dispatch(id, nextId, priority);
            fifo[tail++ % idSpace] = id;
        };
        for (size_t i = 0; i < resident; ++i)
            admit(false);
        double credit = 0.0;
        uint64_t start = nowNs();
        for (uint64_t i = 0; i < dispatches; ++i) {
            credit += priorityShare;
            bool priority = credit >= 1.0;
            if (priority)
                credit -= 1.0;
            if (tail - head >= params.iqEntries - 1)
                queue.remove(fifo[head++ % idSpace]);
            admit(priority);
            queue.remove(fifo[head++ % idSpace]);
        }
        layers.iqSeconds += secondsBetween(start, nowNs());
        layers.iqOps += dispatches;
    }

    {
        Tracer::Span span(ctx.tracer, "replay/mem", label);
        mem::MemorySystem timedMemory(params.memory);
        uint64_t accesses = 0;
        uint64_t start = nowNs();
        for (size_t i = 0; i < stream.size(); ++i) {
            if (!stream[i].isMem())
                continue;
            timedMemory.dataAccess(stream[i].effAddr, stream[i].isStore(),
                                   (pubs::Cycle)i);
            ++accesses;
        }
        layers.dataAccessSeconds += secondsBetween(start, nowNs());
        mem::MemorySystem warmMemory(params.memory);
        start = nowNs();
        for (const trace::DynInst &inst : stream)
            if (inst.isMem())
                warmMemory.warmData(inst.effAddr, inst.isStore());
        layers.warmAccessSeconds += secondsBetween(start, nowNs());
        layers.memAccesses += accesses;
    }
}

// --- output ----------------------------------------------------------------

double
ratio(double num, double den, double scale = 1.0)
{
    return den > 0.0 ? num * scale / den : 0.0;
}

/** The per-layer metrics, named as in BENCHMARK.json. */
std::string
layersJson(const Layers &l, const std::vector<RunRecord> &runs)
{
    double gen = 0, ctor = 0, warmup = 0, measure = 0;
    cpu::PipelineStats s;
    uint64_t dynamicBranches = 0, unconfident = 0;
    for (const RunRecord &run : runs) {
        gen += run.genSeconds;
        ctor += run.ctorSeconds;
        warmup += run.runSeconds - run.measureSeconds;
        measure += run.measureSeconds;
        accumulate(s, run.stats);
        dynamicBranches += run.dynamicBranches;
        unconfident += run.unconfidentBranches;
    }
    uint64_t dispatched = s.priorityDispatches + s.normalDispatches;
    std::vector<std::pair<const char *, double>> metrics = {
        {"workloads.gen_s", gen},
        {"sim.ctor_s", ctor},
        {"sim.warmup_s", warmup},
        {"sim.measure_s", measure},
        {"sim.ff_minsts_per_s", ratio((double)l.ffInsts, l.ffSeconds, 1e-6)},
        {"sim.ckpt_bytes", (double)l.ckptBytes},
        {"sim.ckpt_save_mb_per_s",
         ratio((double)l.ckptBytes, l.ckptSaveSeconds, 1e-6)},
        {"sim.ckpt_restore_mb_per_s",
         ratio((double)l.ckptBytes, l.ckptRestoreSeconds, 1e-6)},
        {"sim.store_misses", (double)l.storeMisses},
        {"sim.store_hits", (double)l.storeHits},
        {"emu.steps", (double)l.emuSteps},
        {"emu.step_ns", ratio(l.emuSeconds, (double)l.emuSteps, 1e9)},
        {"cpu.self_s", std::max(0.0, measure - l.emuMeasureSeconds)},
        {"cpu.fetched", (double)s.fetched},
        {"cpu.wrong_path_fetched", (double)s.wrongPathFetched},
        {"cpu.useful_fetch_ratio",
         ratio((double)s.committed, (double)s.fetched)},
        {"cpu.squashed", (double)s.squashed},
        {"cpu.cycles", (double)s.cycles},
        {"cpu.ns_per_fetched", ratio(measure, (double)s.fetched, 1e9)},
        {"branch.cond_branches", (double)s.condBranches},
        {"branch.mispredicts", (double)s.condMispredicts},
        {"branch.predict_update_ns",
         ratio(l.predictSeconds, (double)l.replayBranches, 1e9)},
        {"pubs.decode_ns",
         ratio(l.decodeSeconds, (double)l.decodedInsts, 1e9)},
        {"pubs.priority_dispatches", (double)s.priorityDispatches},
        {"pubs.priority_stall_cycles", (double)s.priorityStallCycles},
        {"pubs.unconfident_rate",
         ratio((double)unconfident, (double)dynamicBranches)},
        {"iq.dispatched", (double)dispatched},
        {"iq.issued", (double)s.issued},
        {"iq.dispatch_per_commit",
         ratio((double)dispatched, (double)s.committed)},
        {"iq.dispatch_remove_ns", ratio(l.iqSeconds, (double)l.iqOps, 1e9)},
        {"mem.l1d_accesses", (double)s.l1dAccesses},
        {"mem.l1d_miss_ratio",
         ratio((double)s.l1dMisses, (double)s.l1dAccesses)},
        {"mem.llc_misses", (double)s.llcMisses},
        {"mem.data_access_ns",
         ratio(l.dataAccessSeconds, (double)l.memAccesses, 1e9)},
        {"mem.warm_access_ns",
         ratio(l.warmAccessSeconds, (double)l.memAccesses, 1e9)},
    };
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        out += i ? ", " : "";
        out += jsonString(metrics[i].first);
        out += ": ";
        out += jsonNumber(metrics[i].second);
    }
    return out + "}";
}

std::string
runJson(const RunRecord &run)
{
    std::string out = "{\"program\": " + jsonString(run.program) +
                      ", \"machine\": " + jsonString(run.machine) +
                      ", \"ok\": " + (run.error.empty() ? "true" : "false");
    if (!run.error.empty())
        return out + ", \"error\": " + jsonString(run.error) + "}";
    return out + ", \"digest\": " + jsonString(statsDigest(run.stats)) +
           ", \"instructions\": " + std::to_string(run.stats.committed) +
           ", \"cycles\": " + std::to_string(run.stats.cycles) +
           ", \"gen_s\": " + jsonNumber(run.genSeconds) +
           ", \"ctor_s\": " + jsonNumber(run.ctorSeconds) +
           ", \"run_s\": " + jsonNumber(run.runSeconds) +
           ", \"measure_s\": " + jsonNumber(run.measureSeconds) +
           ", \"total_s\": " + jsonNumber(run.totalSeconds) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    bool traced = !options.tracePath.empty();
    Tracer tracer(traced);
    Layers layers;
    RunContext ctx{options, tracer, layers, traced ? clockPairNs() : 0.0};

    std::vector<RunRecord> runs;
    uint64_t passStart = nowNs();
    for (const std::string &machine : options.machines) {
        cpu::CoreParams params = machineParams(machine);
        for (const std::string &program : options.programs) {
            RunRecord record;
            record.program = program;
            record.machine = machine;
            std::string label = program + "/" + machine;
            uint64_t runStart = nowNs();
            try {
                wl::Workload workload = [&] {
                    Tracer::Span span(tracer, "workloads/make", label);
                    return wl::makeWorkload(program, options.seed);
                }();
                record.genSeconds = secondsBetween(runStart, nowNs());
                if (options.windows)
                    runSampled(ctx, params, workload.program, label,
                               machine, record);
                else
                    runStraight(ctx, params, workload.program, label,
                                record);
            } catch (const std::exception &error) {
                record.error = error.what();
            }
            record.totalSeconds = secondsBetween(runStart, nowNs());
            runs.push_back(std::move(record));
        }
    }
    double passSeconds = secondsBetween(passStart, nowNs());

    // Everything below happens after the timed pass.
    if (traced && !options.windows) {
        for (const RunRecord &record : runs) {
            if (!record.error.empty())
                continue;
            wl::Workload workload =
                wl::makeWorkload(record.program, options.seed);
            replay(ctx, machineParams(record.machine), workload.program,
                   record, options.warmup + options.measure,
                   record.program + "/" + record.machine);
        }
    }

    double setup = 0.0, measure = 0.0;
    uint64_t committed = 0;
    for (const RunRecord &run : runs) {
        setup += run.genSeconds + run.ctorSeconds;
        measure += run.measureSeconds;
        committed += run.stats.committed;
    }
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::string out = "{\"wall_s\": " + jsonNumber(passSeconds) +
                      ", \"setup_s\": " + jsonNumber(setup) +
                      ", \"measure_s\": " + jsonNumber(measure) +
                      ", \"instructions\": " + std::to_string(committed) +
                      ", \"peak_rss_kb\": " +
                      std::to_string((long long)usage.ru_maxrss) +
                      ",\n\"runs\": [";
    for (size_t i = 0; i < runs.size(); ++i) {
        out += i ? ",\n " : "\n ";
        out += runJson(runs[i]);
    }
    out += "\n]";
    if (traced)
        out += ",\n\"layers\": " + layersJson(layers, runs);
    out += "}\n";
    std::fputs(out.c_str(), stdout);

    if (traced && !tracer.write(options.tracePath)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     options.tracePath.c_str());
        return 1;
    }
    return 0;
}
