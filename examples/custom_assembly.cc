/**
 * @file
 * Example: write a program in the micro-ISA's text assembly, run it
 * functionally, and simulate it on the base and the PUBS machine — the
 * workflow for bringing your own kernel.
 */

#include <cstdio>

#include "common/rng.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace
{

// A toy checksum kernel with one data-dependent branch: the kind of
// loop PUBS accelerates. The data-dependent `blt` is hard to predict;
// its slice is ld -> xor -> blt.
const char *const kernel = R"(
        li   r2, 0x100000     # array base
        li   r10, 1023        # index mask
        li   r20, 0x20000000  # branch threshold (~50% taken)
        li   r21, 0x3fffffff  # value mask
        li   r1, 0            # i
        li   r11, 0           # checksum
    loop:
        and  r4, r1, r10
        slli r5, r4, 3
        add  r5, r5, r2
        ld   r3, r5, 0
        xor  r6, r3, r11
        and  r6, r6, r21
        blt  r6, r20, light
        mul  r7, r3, r3       # heavy arm
        add  r11, r11, r7
        j    next
    light:
        xor  r11, r11, r3
    next:
        addi r1, r1, 1
        addi r12, r12, 1      # independent filler
        addi r13, r13, 3
        add  r14, r20, r20
        j    loop
)";

} // namespace

int
main()
{
    using namespace pubs;

    // Assemble and attach input data.
    isa::Program prog = isa::assemble(kernel, "checksum");
    Rng rng(42);
    for (int i = 0; i < 1024; ++i)
        prog.addData64(0x100000 + (Addr)i * 8, rng.below(1u << 30));

    std::printf("=== program listing (head) ===\n");
    std::string listing = prog.listing();
    std::printf("%.*s...\n\n", 420, listing.c_str());

    // Functional run: what the first 400K instructions compute.
    {
        emu::Emulator emu(prog);
        trace::DynInst di;
        unsigned long long steps = 0;
        while (steps < 400000 && emu.step(di))
            ++steps;
        std::printf("emulated %llu instructions\n", steps);
        std::printf("architectural checksum r11 = %#llx\n\n",
                    (unsigned long long)emu.intReg(11));
    }

    // Timing simulation from the program, on both machines.
    const uint64_t warmup = 50000;
    const uint64_t measure = 200000;
    sim::RunResult base = sim::simulate(sim::makeConfig(sim::Machine::Base),
                                        prog, warmup, measure);
    sim::RunResult pubs = sim::simulate(sim::makeConfig(sim::Machine::Pubs),
                                        prog, warmup, measure);
    std::printf("base machine      : IPC %.3f, branch MPKI %.1f\n",
                base.ipc, base.branchMpki);
    std::printf("PUBS machine      : IPC %.3f, branch MPKI %.1f\n",
                pubs.ipc, pubs.branchMpki);
    std::printf("speedup           : %+.1f%%\n",
                (pubs.speedupOver(base) - 1.0) * 100.0);
    std::printf("misspec. penalty  : %.1f -> %.1f cycles\n",
                base.avgMisspecPenalty, pubs.avgMisspecPenalty);
    return 0;
}
