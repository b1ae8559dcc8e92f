/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * predictor lookup/update, PUBS table operations, IQ dispatch/select
 * structures, cache accesses, and whole-pipeline simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "branch/perceptron.hh"
#include "common/bench_util.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/slab.hh"
#include "emu/emulator.hh"
#include "cpu/event_wheel.hh"
#include "cpu/pipeline.hh"
#include "iq/age_matrix.hh"
#include "iq/random_queue.hh"
#include "mem/cache.hh"
#include "pubs/slice_unit.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace
{

using namespace pubs;

void
BM_PerceptronPredictUpdate(benchmark::State &state)
{
    branch::Perceptron pred(34, 256);
    Rng rng(1);
    Pc pc = 0x1000;
    for (auto _ : state) {
        bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(pred.predict(pc));
        pred.update(pc, taken);
        pc = 0x1000 + (rng.next() & 0xff) * 4;
    }
}
BENCHMARK(BM_PerceptronPredictUpdate);

void
BM_PerceptronDotScalar(benchmark::State &state)
{
    int16_t w[64];
    Rng rng(7);
    for (int i = 0; i < 64; ++i)
        w[i] = (int16_t)((int)rng.below(256) - 128);
    uint64_t history = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::perceptronDotScalar(w, 34, history));
        history = history * 6364136223846793005ull + 1442695040888963407ull;
    }
}
BENCHMARK(BM_PerceptronDotScalar);

#if PUBS_SIMD_COMPILED
void
BM_PerceptronDotSimd(benchmark::State &state)
{
    int16_t w[64];
    Rng rng(7);
    for (int i = 0; i < 64; ++i)
        w[i] = (int16_t)((int)rng.below(256) - 128);
    uint64_t history = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(simd::perceptronDotSimd(w, 34, history));
        history = history * 6364136223846793005ull + 1442695040888963407ull;
    }
}
BENCHMARK(BM_PerceptronDotSimd);
#endif

void
BM_SliceUnitDecode(benchmark::State &state)
{
    ::pubs::pubs::SliceUnit unit({});
    trace::DynInst alu;
    alu.pc = 0x1000;
    alu.op = isa::Opcode::Add;
    alu.dst = 3;
    alu.src1 = 4;
    alu.src2 = 5;
    trace::DynInst br;
    br.pc = 0x1004;
    br.op = isa::Opcode::Blt;
    br.src1 = 3;
    br.src2 = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.decode(alu));
        benchmark::DoNotOptimize(unit.decode(br));
    }
}
BENCHMARK(BM_SliceUnitDecode);

void
BM_RandomQueueDispatchRemove(benchmark::State &state)
{
    iq::RandomQueue queue(64, 6, 1);
    Rng rng(2);
    uint32_t id = 0;
    std::vector<uint32_t> live;
    for (auto _ : state) {
        if (live.size() < 48 && queue.canDispatch(false)) {
            queue.dispatch(id, id, false);
            live.push_back(id++);
        } else {
            size_t pick = (size_t)rng.below(live.size());
            queue.remove(live[pick]);
            live.erase(live.begin() + (long)pick);
        }
    }
}
BENCHMARK(BM_RandomQueueDispatchRemove);

void
BM_AgeMatrixOldestReady(benchmark::State &state)
{
    iq::AgeMatrix age(64);
    for (unsigned s = 0; s < 48; ++s)
        age.dispatch(s);
    std::vector<uint64_t> ready{0x0f0f0f0f0f0full};
    for (auto _ : state)
        benchmark::DoNotOptimize(age.oldestReady(ready));
}
BENCHMARK(BM_AgeMatrixOldestReady);

void
BM_EventWheelScheduleDrain(benchmark::State &state)
{
    // The wakeup path: schedule completion events a few cycles out,
    // advance the clock, drain. Mimics the pipeline's per-cycle wheel
    // traffic (a handful of operand-ready events per cycle).
    cpu::EventWheel wheel(1024);
    Rng rng(4);
    Cycle now = 0;
    uint64_t fired = 0;
    for (auto _ : state) {
        ++now;
        for (int i = 0; i < 4; ++i) {
            wheel.schedule(now + 1 + rng.below(12),
                           cpu::EventWheel::Kind::OperandReady,
                           (uint32_t)rng.below(192), now, now);
        }
        wheel.drain(now, [&](const cpu::EventWheel::Event &) { ++fired; });
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed((int64_t)fired);
}
BENCHMARK(BM_EventWheelScheduleDrain);

void
BM_SelectBitmapScan(benchmark::State &state)
{
    // The new select loop: ctz-walk the ready bitmap words of a 64-entry
    // queue with a typical sparse ready population.
    iq::RandomQueue queue(64, 6, 1);
    Rng rng(5);
    for (uint32_t id = 0; id < 48; ++id)
        queue.dispatch(id, id, false);
    for (uint32_t id = 0; id < 48; id += 7)
        queue.markReady(id);
    uint64_t picked = 0;
    for (auto _ : state) {
        const auto &words = queue.readyWords();
        for (size_t w = 0; w < words.size(); ++w) {
            uint64_t word = words[w];
            while (word != 0) {
                picked += w * 64 + countTrailingZeros(word);
                word &= word - 1;
            }
        }
    }
    benchmark::DoNotOptimize(picked);
}
BENCHMARK(BM_SelectBitmapScan);

void
BM_SelectFullScan(benchmark::State &state)
{
    // The old select loop for comparison: visit every slot and test it.
    iq::RandomQueue queue(64, 6, 1);
    Rng rng(5);
    for (uint32_t id = 0; id < 48; ++id)
        queue.dispatch(id, id, false);
    std::vector<bool> ready(64, false);
    for (uint32_t id = 0; id < 48; id += 7)
        ready[queue.slotOf(id)] = true;
    uint64_t picked = 0;
    for (auto _ : state) {
        const auto &slots = queue.prioritySlots();
        for (size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].valid && ready[s])
                picked += s;
        }
    }
    benchmark::DoNotOptimize(picked);
}
BENCHMARK(BM_SelectFullScan);

void
BM_SlabDependentChain(benchmark::State &state)
{
    // Scoreboard dependent-overflow traffic: grow a chain of fanout
    // nodes, walk it, free it — the allocation pattern of a producer
    // with more consumers than the inline array holds.
    struct Node
    {
        std::array<uint32_t, 6> ids{};
        uint8_t n = 0;
        uint32_t next = SlabPool<Node>::npos;
    };
    SlabPool<Node> pool;
    uint64_t walked = 0;
    for (auto _ : state) {
        uint32_t head = SlabPool<Node>::npos;
        for (int i = 0; i < 4; ++i) {
            uint32_t node = pool.alloc();
            pool.at(node).n = 6;
            pool.at(node).next = head;
            head = node;
        }
        for (uint32_t node = head; node != SlabPool<Node>::npos;) {
            walked += pool.at(node).n;
            uint32_t next = pool.at(node).next;
            pool.free(node);
            node = next;
        }
    }
    benchmark::DoNotOptimize(walked);
}
BENCHMARK(BM_SlabDependentChain);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::MainMemory dram(300, 8, 64);
    mem::CacheParams params;
    params.sizeBytes = 32 * 1024;
    mem::Cache cache(params, &dram);
    Rng rng(3);
    Cycle t = 0;
    for (auto _ : state) {
        bool hit;
        Addr addr = (rng.next() & 0xffff);
        benchmark::DoNotOptimize(cache.access(addr, false, t += 2, hit));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_EmulatorStep(benchmark::State &state)
{
    static wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    trace::DynInst di;
    for (auto _ : state)
        benchmark::DoNotOptimize(emu.step(di));
}
BENCHMARK(BM_EmulatorStep);

void
BM_PipelineSimulation(benchmark::State &state)
{
    // Items processed = simulated instructions per wall second.
    static wl::Workload w = wl::makeWorkload("sjeng_like");
    emu::Emulator emu(w.program);
    cpu::Pipeline pipe(sim::makeConfig(sim::Machine::Pubs), emu);
    for (auto _ : state)
        pipe.run(1000);
    state.SetItemsProcessed((int64_t)pipe.stats().committed);
}
BENCHMARK(BM_PipelineSimulation)->Unit(benchmark::kMillisecond);

void
BM_ParallelSweep(benchmark::State &state)
{
    // Whole-batch simulation throughput through the sweep engine; the
    // argument is the job count, so 1 vs N shows run-level scaling.
    static wl::Workload sjeng = wl::makeWorkload("sjeng_like");
    static wl::Workload gobmk = wl::makeWorkload("gobmk_like");
    uint64_t committed = 0;
    for (auto _ : state) {
        bench::SweepSpec spec;
        spec.options.jobs = (unsigned)state.range(0);
        spec.options.warmup = 1000;
        spec.options.insts = 20000;
        spec.verbose = false;
        for (const auto *w : {&sjeng, &gobmk}) {
            spec.add(*w, sim::makeConfig(sim::Machine::Base), "base");
            spec.add(*w, sim::makeConfig(sim::Machine::Pubs), "pubs");
        }
        bench::SweepResult sweep = bench::runSweep(spec);
        for (const auto &row : sweep.rows)
            committed += row.result.instructions;
    }
    state.SetItemsProcessed((int64_t)committed);
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
