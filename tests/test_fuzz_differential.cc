/**
 * @file
 * Differential fuzzing of the pipeline against the functional emulator.
 *
 * A seeded generator builds random-but-well-formed programs over the
 * ISA builder (arithmetic, shifts, division, loads/stores to a private
 * data region, data-dependent forward branches, calls into leaf
 * functions), then each program runs through the full out-of-order
 * pipeline with the lockstep commit checker and the structural auditor
 * set to Throw, on both the base and the PUBS machine. Any divergence
 * between pipeline commits and the emulator's architectural state is a
 * test failure; the failing seed is shrunk (fewer blocks, shorter
 * blocks) before being reported so the repro in the assert message is
 * as small as possible.
 *
 * Program count and per-program instruction budget can be overridden
 * with PUBS_FUZZ_PROGRAMS / PUBS_FUZZ_INSTS for longer offline runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/builder.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/parallel_for.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

namespace pubs
{
namespace
{

struct FuzzParams
{
    unsigned blocks = 4;      ///< basic blocks per loop body
    unsigned opsPerBlock = 6; ///< straight-line ops per block
};

constexpr Addr dataBase = 0x10000;
constexpr unsigned dataSlots = 64;

RegId
randomDst(Rng &rng)
{
    // r0 stays zero, r1 is the loop counter, r2 the data base and r31
    // the link register; everything else is fair game.
    return (RegId)(3 + rng.below(12));
}

RegId
randomSrc(Rng &rng)
{
    return (RegId)rng.below(15); // r0..r14
}

void
emitRandomOp(isa::ProgramBuilder &b, Rng &rng)
{
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {
        static const isa::Opcode rrr[] = {
            isa::Opcode::Add, isa::Opcode::Sub, isa::Opcode::And,
            isa::Opcode::Or,  isa::Opcode::Xor, isa::Opcode::Slt,
            isa::Opcode::Sll,
        };
        b.rrr(rrr[rng.below(sizeof(rrr) / sizeof(rrr[0]))],
              randomDst(rng), randomSrc(rng), randomSrc(rng));
        break;
      }
      case 3: {
        // Multiply / divide / remainder; the emulator defines the
        // divide-by-zero cases, so no operand screening is needed.
        static const isa::Opcode muldiv[] = {
            isa::Opcode::Mul, isa::Opcode::Div, isa::Opcode::Rem,
        };
        b.rrr(muldiv[rng.below(3)], randomDst(rng), randomSrc(rng),
              randomSrc(rng));
        break;
      }
      case 4:
      case 5: {
        static const isa::Opcode rri[] = {
            isa::Opcode::Addi, isa::Opcode::Andi, isa::Opcode::Xori,
            isa::Opcode::Slti,
        };
        b.rri(rri[rng.below(4)], randomDst(rng), randomSrc(rng),
              (int64_t)rng.below(256) - 128);
        break;
      }
      case 6:
        b.rri(rng.chance(0.5) ? isa::Opcode::Slli : isa::Opcode::Srli,
              randomDst(rng), randomSrc(rng), (int64_t)rng.below(64));
        break;
      case 7:
      case 8:
        b.ld(randomDst(rng), 2, (int64_t)(8 * rng.below(dataSlots)));
        break;
      default:
        b.st(randomSrc(rng), 2, (int64_t)(8 * rng.below(dataSlots)));
        break;
    }
}

/**
 * Build a random program: an effectively-infinite outer loop whose body
 * is @p p.blocks blocks of random ops, some guarded by data-dependent
 * forward branches, some calling one of three random leaf functions.
 */
isa::Program
makeRandomProgram(uint64_t seed, const FuzzParams &p)
{
    Rng rng(seed);
    isa::ProgramBuilder b("fuzz_" + std::to_string(seed));

    for (unsigned slot = 0; slot < dataSlots; ++slot) {
        // Mix tiny values (interesting for div/rem and branches) with
        // full-width noise.
        uint64_t value =
            rng.chance(0.3) ? rng.below(8) : rng.next();
        b.data64(dataBase + 8ull * slot, value);
    }

    b.li(2, (int64_t)dataBase);
    for (RegId r = 3; r <= 14; ++r) {
        int64_t value = rng.chance(0.5) ? (int64_t)rng.below(16)
                                        : (int64_t)(int32_t)rng.next();
        b.li(r, value);
    }
    b.li(1, 100000); // far more iterations than any insts budget

    static const isa::Opcode branches[] = {
        isa::Opcode::Beq, isa::Opcode::Bne, isa::Opcode::Blt,
        isa::Opcode::Bge,
    };

    unsigned nextLabel = 0;
    b.label("loop");
    for (unsigned block = 0; block < p.blocks; ++block) {
        std::string skip;
        if (rng.chance(0.4)) {
            // A data-dependent forward branch over this block.
            skip = "skip" + std::to_string(nextLabel++);
            b.branch(branches[rng.below(4)], randomSrc(rng),
                     randomSrc(rng), skip);
        }
        for (unsigned op = 0; op < p.opsPerBlock; ++op)
            emitRandomOp(b, rng);
        if (rng.chance(0.15))
            b.jal(31, "leaf" + std::to_string(rng.below(3)));
        if (!skip.empty())
            b.label(skip);
    }
    b.addi(1, 1, -1);
    b.bne(1, 0, "loop");
    b.halt();

    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        b.label("leaf" + std::to_string(leaf));
        emitRandomOp(b, rng);
        emitRandomOp(b, rng);
        b.jr(31);
    }
    return b.build();
}

/**
 * Run @p program with the lockstep checker and auditor throwing.
 * @return "" on success, else the divergence description.
 */
std::string
runChecked(const isa::Program &program, sim::Machine machine,
           uint64_t insts)
{
    cpu::CoreParams params = sim::makeConfig(machine);
    params.checkPolicy = CheckPolicy::Throw;
    params.auditPolicy = CheckPolicy::Throw;
    params.heartbeatInterval = 0;
    try {
        sim::Simulator simulator(params, program);
        sim::RunResult result = simulator.run(0, insts);
        if (result.instructions == 0)
            return "committed zero instructions";
    } catch (const SimError &error) {
        return std::string(SimError::kindName(error.kind())) + ": " +
               error.what();
    }
    return "";
}

/** @return "" if @p seed passes on both machines, else a description. */
std::string
checkSeed(uint64_t seed, const FuzzParams &p, uint64_t insts)
{
    isa::Program program = makeRandomProgram(seed, p);
    for (sim::Machine machine :
         {sim::Machine::Base, sim::Machine::Pubs}) {
        std::string error = runChecked(program, machine, insts);
        if (!error.empty()) {
            return std::string("machine=") + sim::machineName(machine) +
                   ": " + error;
        }
    }
    return "";
}

/** Shrink a failing configuration while it keeps failing. */
FuzzParams
shrink(uint64_t seed, FuzzParams p, uint64_t insts)
{
    for (bool progress = true; progress;) {
        progress = false;
        FuzzParams candidates[2] = {p, p};
        candidates[0].blocks = p.blocks / 2;
        candidates[1].opsPerBlock = p.opsPerBlock / 2;
        for (const FuzzParams &candidate : candidates) {
            if (candidate.blocks < 1 || candidate.opsPerBlock < 1)
                continue;
            if (!checkSeed(seed, candidate, insts).empty()) {
                p = candidate;
                progress = true;
                break;
            }
        }
    }
    return p;
}

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value && *value ? std::strtoull(value, nullptr, 10) : fallback;
}

TEST(FuzzDifferential, GeneratorIsDeterministic)
{
    FuzzParams p;
    isa::Program a = makeRandomProgram(7, p);
    isa::Program b = makeRandomProgram(7, p);
    EXPECT_EQ(a.listing(), b.listing());
    EXPECT_NE(a.listing(), makeRandomProgram(8, p).listing());
}

TEST(FuzzDifferential, CorruptedCheckpointsNeverCrashTheLoader)
{
    // Corruption mode for the checkpoint container: a pristine
    // checkpoint, then seeded truncations, bit flips, and a
    // stale-version rewrite. Every mutation must either restore cleanly
    // (the mutation missed the validated bytes) or throw a structured
    // SimError — never crash, hang, or silently restore wrong state.
    wl::Workload w = wl::makeWorkload("sjeng_like");
    cpu::CoreParams params = sim::makeConfig(sim::Machine::Pubs);
    std::string pristine;
    {
        sim::Simulator saver(params, w.program);
        saver.fastForward(4000);
        pristine = saver.saveCheckpoint("pubs");
    }
    ASSERT_GT(pristine.size(), 64u);

    sim::Simulator victim(params, w.program);
    Rng rng(0xc0222);
    const uint64_t rounds = envOr("PUBS_FUZZ_CORRUPT_ROUNDS", 300);
    for (uint64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::string mutated = pristine;
        if (round == 0) {
            // A well-framed container from a future format version:
            // version field rewritten, header CRC recomputed.
            for (int i = 0; i < 4; ++i)
                mutated[8 + i] = (char)((2u >> (8 * i)) & 0xff);
            uint32_t headerCrc = crc32(mutated.data(), 24);
            for (int i = 0; i < 4; ++i)
                mutated[24 + i] =
                    (char)((headerCrc >> (8 * i)) & 0xff);
        } else if (rng.chance(0.5)) {
            mutated.resize(rng.below(mutated.size()));
        } else {
            for (uint64_t flips = 1 + rng.below(4); flips; --flips) {
                size_t at = (size_t)rng.below(mutated.size());
                mutated[at] = (char)(mutated[at] ^ (1u << rng.below(8)));
            }
        }
        try {
            victim.restoreCheckpoint(mutated);
            // Accepting is only sound if the bytes still validate;
            // re-reading the meta proves the container is well-formed.
            (void)sim::readCheckpointMeta(mutated);
        } catch (const SimError &) {
            // Structured rejection is exactly the contract.
        }
    }

    // The victim must still be usable after the barrage: a clean
    // restore and a detailed run work.
    victim.restoreCheckpoint(pristine);
    sim::RunResult result = victim.run(500, 2000);
    EXPECT_GT(result.instructions, 0u);
}

TEST(FuzzDifferential, RandomProgramsMatchEmulatorInLockstep)
{
    const uint64_t count = envOr("PUBS_FUZZ_PROGRAMS", 200);
    const uint64_t insts = envOr("PUBS_FUZZ_INSTS", 3000);
    const uint64_t baseSeed = 0xf0220000ull;
    const FuzzParams defaults;

    // Each seed is independent, so fan the batch out over the hardware
    // threads; failures land in per-seed slots and are reported in seed
    // order.
    std::vector<std::string> failures(count);
    sim::parallelFor(0, count, [&](size_t i) {
        failures[i] = checkSeed(baseSeed + i, defaults, insts);
    });

    for (uint64_t i = 0; i < count; ++i) {
        if (failures[i].empty())
            continue;
        uint64_t seed = baseSeed + i;
        FuzzParams reduced = shrink(seed, defaults, insts);
        std::string error = checkSeed(seed, reduced, insts);
        if (error.empty()) // shrinking lost the bug; report unshrunk
            error = failures[i];
        FAIL() << "differential fuzz failure\n"
               << "  seed:   " << seed << "\n"
               << "  params: blocks=" << reduced.blocks
               << " opsPerBlock=" << reduced.opsPerBlock
               << " insts=" << insts << "\n"
               << "  error:  " << error << "\n"
               << "repro program:\n"
               << makeRandomProgram(seed, reduced).listing();
    }
}

} // namespace
} // namespace pubs
