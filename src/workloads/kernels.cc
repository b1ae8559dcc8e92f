#include "workloads/kernels.hh"

#include <string>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/builder.hh"

namespace pubs::wl
{

using isa::Opcode;
using isa::ProgramBuilder;

namespace
{

// Register conventions shared by the kernels (integer file):
//   r0  zero               r1  loop index
//   r2  primary base       r3  loaded value (slice head)
//   r4..r9 scratch         r10 index mask
//   r11 accumulator        r12..r19 int filler chains
//   r20 branch threshold   r21/r22 secondary/tertiary bases
//   r23 scratch-store base r24..r29 chase chains / split thresholds
//   r30 state              r31 gather base
// FP file: f1..f8 filler chains, f10/f11 constants, f1..f3 stream data.

constexpr Addr primaryBase = 0x100000;    // 1 MB
constexpr Addr secondaryBase = 0x4000000; // 64 MB
constexpr Addr tertiaryBase = 0x8000000;  // 128 MB
constexpr Addr scratchBase = 0xc000000;   // 192 MB
constexpr Addr chaseBase = 0x10000000;    // 256 MB
constexpr Addr gatherBase = 0x18000000;   // 384 MB

/** Values are drawn uniformly from [0, 2^30); thresholds scale with it. */
constexpr int64_t valueRange = (int64_t)1 << 30;

int64_t
thresholdFor(double takenBias)
{
    fatal_if(takenBias < 0.0 || takenBias > 1.0, "bias out of range");
    return (int64_t)(takenBias * (double)valueRange);
}

/**
 * Install a random uint64 array as program data, each word one draw
 * reduced as Rng::below(@p limit) reduces it; the image writes a page
 * when it is first read.
 */
void
installRandomWords(isa::Program &prog, Addr base, size_t count,
                   uint64_t limit, Rng &rng)
{
    prog.fillRandom64(base, count, rng, [limit](uint64_t draw) {
        return Rng::belowOf(draw, limit);
    });
}

/**
 * Install a random double array (values in [0,2), each word one draw as
 * Rng::uniform() maps it) as program data.
 */
void
installRandomDoubles(isa::Program &prog, Addr base, size_t count, Rng &rng)
{
    prog.fillRandom64(base, count, rng, [](uint64_t draw) {
        double v = Rng::toDouble(draw) * 2.0;
        uint64_t bits;
        __builtin_memcpy(&bits, &v, sizeof(bits));
        return bits;
    });
}

/** Load FP constants: f10 = 1.0, f11 = 0.5. */
void
emitFpConstants(ProgramBuilder &b)
{
    b.li(4, 1).fcvt(10, 4);
    b.li(4, 2).fcvt(11, 4).fdiv(11, 10, 11); // 1.0 / 2.0
}

/** Seed the integer filler chains r12..r19. */
void
emitFillerInit(ProgramBuilder &b)
{
    for (RegId r = 12; r <= 19; ++r)
        b.li(r, 17 * r + 1);
}

/**
 * Independent computation-slice filler: @p intOps single-cycle integer
 * ops across chains r12..r19 and @p fpOps FP ops across chains f1..f8.
 * These are the "computation slices" that compete with branch slices for
 * issue slots.
 */
void
emitFiller(ProgramBuilder &b, unsigned intOps, unsigned fpOps)
{
    // One in three integer ops is dependence-free (its sources are
    // loop-invariant), so it is ready the moment it dispatches: these
    // form the "ready pool" that position-random select draws from ahead
    // of branch-slice instructions; the rest are short dependence chains.
    for (unsigned i = 0; i < intOps; ++i) {
        RegId r = (RegId)(12 + (i % 8));
        switch (i % 3) {
          case 0: b.add(r, 20, 20); break;      // independent
          case 1: b.addi(r, r, 3); break;       // chained
          case 2: b.xori(r, r, 0x55); break;    // chained
        }
    }
    for (unsigned i = 0; i < fpOps; ++i) {
        RegId f = (RegId)(1 + (i % 8));
        switch (i % 3) {
          case 0: b.fmul(f, 10, 11); break; // independent
          default: b.fadd(f, f, 11); break; // chained
        }
    }
}

/**
 * A slice-mangling chain of @p depth dependent single-cycle ops on r3,
 * preserving uniformity over [0, 2^30).
 */
void
emitSliceChain(ProgramBuilder &b, unsigned depth)
{
    for (unsigned d = 0; d < depth; ++d) {
        if (d % 2 == 0) {
            b.xori(3, 3, 0x2f1d);
        } else {
            b.srli(6, 3, 11).xor_(3, 3, 6);
        }
    }
}

/**
 * The data-dependent branch at the end of a branch slice: compares r3
 * against the bias threshold in r20; both arms do one op on r11.
 */
void
emitHardBranch(ProgramBuilder &b, const std::string &tag)
{
    std::string taken = "tk_" + tag;
    std::string join = "jn_" + tag;
    b.blt(3, 20, taken);
    b.xor_(11, 11, 3);
    b.jump(join);
    b.label(taken);
    b.add(11, 11, 3);
    b.label(join);
}

/** r5 = primary base + 8 * (r1 & mask); clobbers r4. */
void
emitIndexedAddress(ProgramBuilder &b, RegId baseReg)
{
    b.and_(4, 1, 10);
    b.slli(5, 4, 3);
    b.add(5, 5, baseReg);
}

} // namespace

isa::Program
branchyProgram(const std::string &name, const BranchyParams &p)
{
    fatal_if(!isPowerOf2(p.elems), "elems must be a power of two");
    Rng rng(p.seed);

    ProgramBuilder b(name);
    b.li(2, (int64_t)primaryBase);
    b.li(10, (int64_t)p.elems - 1);
    b.li(20, thresholdFor(p.takenBias));
    b.li(23, (int64_t)scratchBase);
    b.li(1, 0).li(11, 0);
    emitFillerInit(b);
    emitFpConstants(b);

    fatal_if(p.unroll == 0, "unroll must be at least 1");
    if (p.condLoopBranch)
        b.li(9, valueRange); // loop bound far beyond any index value
    b.label("loop");
    for (unsigned u = 0; u < p.unroll; ++u) {
        for (unsigned h = 0; h < p.hardBranches; ++h) {
            emitIndexedAddress(b, 2);
            b.ld(3, 5, 0);
            emitSliceChain(b, p.sliceDepth);
            emitHardBranch(b, "b" + std::to_string(h) + "_" +
                                  std::to_string(u));
            b.addi(1, 1, 1);
        }
        emitFiller(b, p.intFiller, p.fpFiller);
        if (p.withStore) {
            b.and_(7, 1, 10);
            b.slli(7, 7, 3);
            b.add(7, 7, 23);
            b.st(11, 7, 0);
        }
    }
    if (p.condLoopBranch)
        b.blt(1, 9, "loop"); // always taken: a confident branch slice
    b.jump("loop");

    isa::Program prog = b.build();
    installRandomWords(prog, primaryBase, p.elems, valueRange, rng);
    return prog;
}

isa::Program
pointerChaseProgram(const std::string &name, const PointerChaseParams &p)
{
    fatal_if(!isPowerOf2(p.nodes), "nodes must be a power of two");
    fatal_if(p.chains == 0 || p.chains > 6, "chains must be 1..6");
    Rng rng(p.seed);

    constexpr unsigned nodeBytes = 64;

    ProgramBuilder b(name);
    b.li(20, thresholdFor(p.takenBias));
    b.li(11, 0).li(1, 0);
    emitFillerInit(b);
    emitFpConstants(b);
    // Chain head pointers, spread evenly around the ring.
    for (unsigned c = 0; c < p.chains; ++c) {
        Addr start = chaseBase +
                     (Addr)(c * (uint64_t)p.nodes / p.chains) * nodeBytes;
        fatal_if(start > INT32_MAX, "chase region exceeds li range");
        b.li((RegId)(24 + c), (int64_t)start);
    }

    b.label("loop");
    for (unsigned c = 0; c < p.chains; ++c) {
        RegId ptr = (RegId)(24 + c);
        b.ld(3, ptr, 8); // payload
        b.xori(3, 3, 0x11ef);
        emitHardBranch(b, "c" + std::to_string(c));
        b.ld(ptr, ptr, 0); // follow the next pointer (serial dependence)
    }
    emitFiller(b, p.intFiller, p.fpFiller);
    b.addi(1, 1, 1);
    b.jump("loop");

    isa::Program prog = b.build();

    // Build a single-cycle random ring (Sattolo's algorithm) so every
    // chain touches the whole working set.
    std::vector<uint32_t> perm(p.nodes);
    for (uint32_t i = 0; i < p.nodes; ++i)
        perm[i] = i;
    for (uint32_t i = p.nodes - 1; i > 0; --i) {
        uint32_t j = (uint32_t)rng.below(i);
        std::swap(perm[i], perm[j]);
    }
    // perm now encodes a permutation; turn it into a successor ring:
    // node perm[k] -> perm[k+1]. Each node is a next pointer and a
    // payload; the rest of its bytes read zero.
    isa::Program::DataRegion ring =
        prog.dataRegion(chaseBase, (size_t)p.nodes * nodeBytes);
    for (uint32_t k = 0; k < p.nodes; ++k) {
        size_t node = (size_t)perm[k] * nodeBytes;
        uint32_t next = perm[(k + 1) % p.nodes];
        ring.put64(node + 0, chaseBase + (uint64_t)next * nodeBytes);
        ring.put64(node + 8, rng.below(valueRange));
    }
    return prog;
}

isa::Program
streamProgram(const std::string &name, const StreamParams &p)
{
    fatal_if(!isPowerOf2(p.elems), "elems must be a power of two");
    Rng rng(p.seed);

    constexpr unsigned branchElems = 1 << 12; // small, L1-resident

    ProgramBuilder b(name);
    b.li(2, (int64_t)secondaryBase);            // A
    b.li(21, (int64_t)(secondaryBase + (Addr)p.elems * 8 + (1 << 20))); // B
    b.li(22, (int64_t)tertiaryBase);            // C (output)
    b.li(10, (int64_t)p.elems - 1);
    b.li(20, thresholdFor(p.takenBias));
    b.li(23, (int64_t)primaryBase); // int array for the optional branch
    if (p.gatherElems > 0)
        b.li(31, (int64_t)gatherBase);
    b.li(1, 0).li(11, 0);
    emitFillerInit(b);
    emitFpConstants(b);

    b.label("loop");
    b.and_(4, 1, 10);
    b.slli(5, 4, 3);
    b.add(6, 5, 2);
    b.fld(1, 6, 0);
    b.add(7, 5, 21);
    b.fld(2, 7, 0);
    b.fmul(3, 1, 2);
    for (unsigned i = 0; i < p.fpOps; ++i)
        b.fadd((RegId)(4 + (i % 3)), (RegId)(4 + (i % 3)), 3);
    b.add(8, 5, 22);
    b.fst(3, 8, 0);
    if (p.withHardBranch) {
        b.andi(9, 1, branchElems - 1);
        b.slli(9, 9, 3);
        b.add(9, 9, 23);
        b.ld(3, 9, 0);
        b.xori(3, 3, 0x3c5a);
        emitHardBranch(b, "s");
    }
    if (p.gatherElems > 0) {
        fatal_if(!isPowerOf2(p.gatherElems), "gather size must be 2^n");
        fatal_if(!isPowerOf2(p.gatherEvery), "gatherEvery must be 2^n");
        // Irregular gather: index by the (random) loaded value; these
        // accesses defeat the stream prefetcher and miss in the LLC.
        // Throttled to every Nth iteration by a (predictable) counter
        // branch so the memory intensity is tunable.
        if (p.gatherPhaseBit > 0) {
            b.andi(9, 1, (int64_t)1 << p.gatherPhaseBit);
            b.bne(9, 0, "skip_gather");
        }
        if (p.gatherEvery > 1) {
            b.andi(9, 1, (int64_t)p.gatherEvery - 1);
            b.bne(9, 0, "skip_gather");
        }
        // Mix the running accumulator into the index so the gather
        // address sequence is aperiodic (the raw input array repeats).
        b.xor_(8, 3, 11);
        b.li(9, (int64_t)p.gatherElems - 1);
        b.and_(9, 8, 9);
        b.slli(9, 9, 3);
        b.add(9, 9, 31);
        b.ld(7, 9, 0);
        b.add(11, 11, 7);
        if (p.gatherEvery > 1)
            b.label("skip_gather");
    }
    b.addi(1, 1, 1);
    b.jump("loop");

    isa::Program prog = b.build();
    installRandomDoubles(prog, secondaryBase, p.elems, rng);
    installRandomDoubles(prog,
                         secondaryBase + (Addr)p.elems * 8 + (1 << 20),
                         p.elems, rng);
    installRandomWords(prog, primaryBase, branchElems, valueRange, rng);
    if (p.gatherElems > 0)
        installRandomWords(prog, gatherBase, p.gatherElems, valueRange,
                           rng);
    return prog;
}

isa::Program
computeProgram(const std::string &name, const ComputeParams &p)
{
    fatal_if(!isPowerOf2(p.elems), "elems must be a power of two");
    fatal_if(p.intChains == 0 || p.intChains > 8, "intChains must be 1..8");
    fatal_if(p.fpChains > 8, "fpChains must be <= 8");
    Rng rng(p.seed);

    ProgramBuilder b(name);
    b.li(2, (int64_t)primaryBase);
    b.li(10, (int64_t)p.elems - 1);
    b.li(20, thresholdFor(p.rareBranchBias));
    b.li(9, (int64_t)p.innerCount);
    b.li(1, 0).li(11, 0);
    emitFillerInit(b);
    emitFpConstants(b);

    b.label("outer");
    b.add(5, 0, 0); // inner counter = 0
    b.label("inner");
    emitFiller(b, p.intChains, p.fpChains);
    b.addi(1, 1, 1);
    b.addi(5, 5, 1);
    b.blt(5, 9, "inner"); // counted loop: easily predicted
    // The occasional (mostly-taken) data-dependent branch.
    emitIndexedAddress(b, 2);
    b.ld(3, 5, 0);
    emitHardBranch(b, "rare");
    b.jump("outer");

    isa::Program prog = b.build();
    installRandomWords(prog, primaryBase, p.elems, valueRange, rng);
    return prog;
}

isa::Program
stateMachineProgram(const std::string &name, const StateMachineParams &p)
{
    fatal_if(!isPowerOf2(p.states) || !isPowerOf2(p.inputSymbols) ||
                 !isPowerOf2(p.inputElems),
             "state-machine sizes must be powers of two");
    fatal_if(p.hardBranches > 6, "at most 6 state-split branches");
    Rng rng(p.seed);

    unsigned symbolShift = exactLog2(p.inputSymbols);
    Addr tableBase = primaryBase;
    Addr inputBase = secondaryBase;

    ProgramBuilder b(name);
    b.li(22, (int64_t)tableBase);
    b.li(21, (int64_t)inputBase);
    b.li(10, (int64_t)p.inputElems - 1);
    // One state-split threshold per hard branch; smaller split fractions
    // make the branch more biased (easier to predict by majority).
    for (unsigned h = 0; h < p.hardBranches; ++h) {
        int64_t threshold = (int64_t)((double)p.states *
                                      p.splitFraction / (double)(h + 1));
        if (threshold < 1)
            threshold = 1;
        b.li((RegId)(24 + h), threshold);
    }
    b.li(30, 0);                       // state
    b.li(1, 0).li(11, 0);
    emitFillerInit(b);
    emitFpConstants(b);

    b.label("loop");
    // Fetch the next input symbol (sequential, cache-friendly).
    b.and_(4, 1, 10);
    b.slli(5, 4, 3);
    b.add(5, 5, 21);
    b.ld(6, 5, 0);
    // next_state = table[state * symbols + input] — a load whose address
    // depends on the previous state: the canonical branch slice.
    b.slli(7, 30, (int64_t)symbolShift);
    b.add(7, 7, 6);
    b.slli(7, 7, 3);
    b.add(7, 7, 22);
    b.ld(30, 7, 0);
    // Branches on the (pseudo-random-walk) state value.
    for (unsigned h = 0; h < p.hardBranches; ++h) {
        std::string tag = "h" + std::to_string(h);
        std::string taken = "tk_" + tag;
        std::string join = "jn_" + tag;
        b.blt(30, (RegId)(24 + h), taken);
        b.xor_(11, 11, 30);
        b.jump(join);
        b.label(taken);
        b.add(11, 11, 30);
        b.label(join);
    }
    emitFiller(b, p.intFiller, p.fpFiller);
    b.addi(1, 1, 1);
    b.jump("loop");

    isa::Program prog = b.build();
    installRandomWords(prog, inputBase, p.inputElems, p.inputSymbols, rng);
    installRandomWords(prog, tableBase,
                       (size_t)p.states * p.inputSymbols, p.states, rng);
    return prog;
}

} // namespace pubs::wl
