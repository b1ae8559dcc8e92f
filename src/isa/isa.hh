/**
 * @file
 * The micro-ISA: a small fixed-width RISC instruction set with the operand
 * classes the PUBS timing model needs (int ALU / mul / div, FP, load/store,
 * conditional branches, jumps). 32 integer + 32 floating-point logical
 * registers (64 total — the def_tab row count in the paper).
 *
 * Integer register r0 is hardwired to zero.
 */

#ifndef PUBS_ISA_ISA_HH
#define PUBS_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pubs::isa
{

/** Every opcode in the micro-ISA. */
enum class Opcode : uint8_t
{
    // Integer ALU, register-register.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    // Integer ALU, register-immediate.
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti,
    // Load a sign-extended 32-bit immediate.
    Li,
    // Integer multiply / divide.
    Mul, Div, Rem,
    // Memory: 8-byte and 4-byte integer, 8-byte FP. Address = [src1+imm].
    Ld, Lw, St, Sw, Fld, Fst,
    // Floating point (double precision).
    Fadd, Fsub, Fmul, Fdiv, Fcvt /* int->fp */, Ficvt /* fp->int */,
    Fmov, Fclt /* fp less-than -> int reg */,
    // Control. Conditional branches compare src1, src2; imm is the target
    // expressed as an absolute instruction index within the program.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    J, Jal, Jr,
    // Misc.
    Nop, Halt,

    NumOpcodes,
};

/** Functional-unit class of an instruction (drives FU-port arbitration). */
enum class OpClass : uint8_t
{
    IntAlu,   ///< 1-cycle integer ops and compares
    IntMul,   ///< pipelined multiplier
    IntDiv,   ///< unpipelined divider
    FpAlu,    ///< FP add/sub/convert/compare/move
    FpMul,    ///< FP multiply
    FpDiv,    ///< FP divide (unpipelined)
    Load,
    Store,
    Branch,   ///< conditional branches and all jumps
    Nop,

    NumClasses,
};

/** Which register file an operand lives in. */
enum class RegClass : uint8_t { Int, Fp, None };

/**
 * A static instruction. Fixed three-operand form; unused operands are
 * invalidReg. Branch/jump targets are absolute instruction indices held
 * in imm (resolved from labels by the assembler / builder).
 */
struct Inst
{
    Opcode op = Opcode::Nop;
    RegId dst = invalidReg;
    RegId src1 = invalidReg;
    RegId src2 = invalidReg;
    int64_t imm = 0;
};

/** Static properties of an opcode, indexed by Opcode. */
struct OpInfo
{
    const char *mnemonic;
    OpClass cls;
    /** Execution latency in cycles (memory ops: address-generation part). */
    unsigned latency;
    /** True if the FU is blocked for the whole latency (divides). */
    bool unpipelined;
    RegClass dstClass;
    RegClass srcClass;   ///< class of register sources
    bool hasImm;
};

/** Look up static properties for @p op. */
const OpInfo &opInfo(Opcode op);

/** Convenience: functional-unit class for @p op. */
OpClass opClass(Opcode op);

/** Human-readable mnemonic. */
const char *mnemonic(Opcode op);

inline bool
isBranch(Opcode op)
{
    return op >= Opcode::Beq && op <= Opcode::Jr;
}

inline bool
isCondBranch(Opcode op)
{
    return op >= Opcode::Beq && op <= Opcode::Bgeu;
}

inline bool
isLoad(Opcode op)
{
    return op == Opcode::Ld || op == Opcode::Lw || op == Opcode::Fld;
}

inline bool
isStore(Opcode op)
{
    return op == Opcode::St || op == Opcode::Sw || op == Opcode::Fst;
}

inline bool
isMem(Opcode op)
{
    return isLoad(op) || isStore(op);
}

/**
 * Register class of a source operand of @p inst. Memory instructions
 * always use an integer base-address register as src1; the store-data
 * register (src2) follows the opcode's data class. For everything else
 * both sources share the opcode's srcClass.
 *
 * @param which 0 for src1, 1 for src2.
 */
RegClass srcRegClass(const Inst &inst, int which);

/** Register class of the destination operand of @p inst. */
RegClass dstRegClass(const Inst &inst);

/**
 * Encode a register id for the unified 64-row logical register space used
 * by the def_tab: int registers map to [0,32), fp registers to [32,64).
 */
inline int
unifiedReg(RegClass cls, RegId r)
{
    return cls == RegClass::Fp ? numIntRegs + r : r;
}

/** Register name ("r7" / "f3"). */
std::string regName(RegClass cls, RegId r);

/** Format one instruction as assembly text. */
std::string disassemble(const Inst &inst);

} // namespace pubs::isa

#endif // PUBS_ISA_ISA_HH
