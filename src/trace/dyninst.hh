/**
 * @file
 * The dynamic-instruction record that flows from the functional emulator
 * into the timing model. It carries exactly what timing needs: static
 * identity, logical operands, the resolved memory address, and the
 * actual control-flow outcome.
 */

#ifndef PUBS_TRACE_DYNINST_HH
#define PUBS_TRACE_DYNINST_HH

#include "common/types.hh"
#include "isa/isa.hh"

namespace pubs::isa
{
class Program;
}

namespace pubs::trace
{

/**
 * Cycle stamps of every pipeline stage one dynamic instruction visited,
 * captured by the timing pipeline when a pipeview trace is attached
 * (trace/pipeview.hh). A stage the instruction never reached stays 0; a
 * squashed instruction is marked instead of retired, matching gem5's
 * O3PipeView semantics.
 */
struct StageStamps
{
    Cycle fetch = 0;
    Cycle decode = 0;
    Cycle rename = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Cycle retire = 0;
    bool squashed = false;
};

struct DynInst
{
    SeqNum seq = 0;
    Pc pc = 0;
    Pc nextPc = 0;          ///< actual next PC (resolves branches)
    isa::Opcode op = isa::Opcode::Nop;
    RegId dst = invalidReg;
    RegId src1 = invalidReg;
    RegId src2 = invalidReg;
    Addr effAddr = 0;       ///< effective address of memory ops
    uint8_t memSize = 0;    ///< access size in bytes (0 for non-memory)
    bool taken = false;     ///< conditional branches: actual direction

    /**
     * Architectural value written to dst (raw bits; FP values are the
     * IEEE-754 bit pattern). 0 and hasDstValue = false when there is no
     * destination. The lockstep commit checker (sim/checker.hh)
     * cross-validates it against an independent reference emulator at
     * every commit.
     */
    uint64_t dstValue = 0;
    bool hasDstValue = false;

    /** Pipeline stage timing, filled only while a pipeview trace is
     *  being written. */
    StageStamps stamps{};

    isa::OpClass cls() const { return isa::opClass(op); }
    bool isBranch() const { return isa::isBranch(op); }
    bool isCondBranch() const { return isa::isCondBranch(op); }
    bool isLoad() const { return isa::isLoad(op); }
    bool isStore() const { return isa::isStore(op); }
    bool isMem() const { return isa::isMem(op); }

    /** Fall-through PC. */
    Pc fallthroughPc() const { return pc + instBytes; }
};

/**
 * A program's dynamic instruction stream. The functional emulator is
 * the one implementation; next() stays virtual so a caller can wrap
 * the emulator's step (to time it, say).
 */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /**
     * Produce the next dynamic instruction.
     * @return false when the stream is exhausted (@p out untouched).
     */
    virtual bool next(DynInst &out) = 0;

    /**
     * The static program this stream executes. The timing model fetches
     * the wrong path of a mispredicted branch from it, and the lockstep
     * checker replays it.
     */
    virtual const isa::Program &program() const = 0;
};

} // namespace pubs::trace

#endif // PUBS_TRACE_DYNINST_HH
