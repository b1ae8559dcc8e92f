/**
 * @file
 * Fluent construction of Programs with forward-label resolution. Workload
 * kernels use this instead of text assembly.
 */

#ifndef PUBS_ISA_BUILDER_HH
#define PUBS_ISA_BUILDER_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace pubs::isa
{

class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name = "prog")
        : prog_(std::move(name))
    {}

    /** Define a label at the next instruction. */
    ProgramBuilder &label(const std::string &name);

    /** Generic register-register-register op. */
    ProgramBuilder &rrr(Opcode op, RegId dst, RegId src1, RegId src2);

    /** Generic register-register-immediate op. */
    ProgramBuilder &rri(Opcode op, RegId dst, RegId src1, int64_t imm);

    // Readable wrappers for the common cases.
    ProgramBuilder &add(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Add, d, a, b); }
    ProgramBuilder &sub(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Sub, d, a, b); }
    ProgramBuilder &and_(RegId d, RegId a, RegId b)
        { return rrr(Opcode::And, d, a, b); }
    ProgramBuilder &or_(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Or, d, a, b); }
    ProgramBuilder &xor_(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Xor, d, a, b); }
    ProgramBuilder &sll(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Sll, d, a, b); }
    ProgramBuilder &slt(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Slt, d, a, b); }
    ProgramBuilder &mul(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Mul, d, a, b); }
    ProgramBuilder &div(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Div, d, a, b); }
    ProgramBuilder &rem(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Rem, d, a, b); }
    ProgramBuilder &addi(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Addi, d, a, imm); }
    ProgramBuilder &andi(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Andi, d, a, imm); }
    ProgramBuilder &xori(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Xori, d, a, imm); }
    ProgramBuilder &slli(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Slli, d, a, imm); }
    ProgramBuilder &srli(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Srli, d, a, imm); }
    ProgramBuilder &slti(RegId d, RegId a, int64_t imm)
        { return rri(Opcode::Slti, d, a, imm); }

    /** Load a sign-extended 32-bit immediate into an integer register. */
    ProgramBuilder &li(RegId dst, int64_t imm);

    /** Load: dst = mem[base + offset]. */
    ProgramBuilder &load(Opcode op, RegId dst, RegId base, int64_t offset);
    ProgramBuilder &ld(RegId d, RegId base, int64_t off)
        { return load(Opcode::Ld, d, base, off); }
    ProgramBuilder &lw(RegId d, RegId base, int64_t off)
        { return load(Opcode::Lw, d, base, off); }
    ProgramBuilder &fld(RegId d, RegId base, int64_t off)
        { return load(Opcode::Fld, d, base, off); }

    /** Store: mem[base + offset] = value. */
    ProgramBuilder &store(Opcode op, RegId value, RegId base,
                          int64_t offset);
    ProgramBuilder &st(RegId v, RegId base, int64_t off)
        { return store(Opcode::St, v, base, off); }
    ProgramBuilder &sw(RegId v, RegId base, int64_t off)
        { return store(Opcode::Sw, v, base, off); }
    ProgramBuilder &fst(RegId v, RegId base, int64_t off)
        { return store(Opcode::Fst, v, base, off); }

    // FP register-register ops.
    ProgramBuilder &fadd(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Fadd, d, a, b); }
    ProgramBuilder &fsub(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Fsub, d, a, b); }
    ProgramBuilder &fmul(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Fmul, d, a, b); }
    ProgramBuilder &fdiv(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Fdiv, d, a, b); }
    ProgramBuilder &fcvt(RegId d, RegId a)
        { return rrr(Opcode::Fcvt, d, a, invalidReg); }
    ProgramBuilder &ficvt(RegId d, RegId a)
        { return rrr(Opcode::Ficvt, d, a, invalidReg); }
    ProgramBuilder &fclt(RegId d, RegId a, RegId b)
        { return rrr(Opcode::Fclt, d, a, b); }

    /** Conditional branch to @p target (label). */
    ProgramBuilder &branch(Opcode op, RegId a, RegId b,
                           const std::string &target);
    ProgramBuilder &beq(RegId a, RegId b, const std::string &t)
        { return branch(Opcode::Beq, a, b, t); }
    ProgramBuilder &bne(RegId a, RegId b, const std::string &t)
        { return branch(Opcode::Bne, a, b, t); }
    ProgramBuilder &blt(RegId a, RegId b, const std::string &t)
        { return branch(Opcode::Blt, a, b, t); }
    ProgramBuilder &bge(RegId a, RegId b, const std::string &t)
        { return branch(Opcode::Bge, a, b, t); }

    /** Unconditional jump to a label. */
    ProgramBuilder &jump(const std::string &target);

    /** Call: link register receives the return PC. */
    ProgramBuilder &jal(RegId link, const std::string &target);

    /** Indirect jump / return. */
    ProgramBuilder &jr(RegId target);

    ProgramBuilder &nop();
    ProgramBuilder &halt();

    /** Install initial data. */
    ProgramBuilder &data64(Addr addr, uint64_t value);
    ProgramBuilder &dataF64(Addr addr, double value);

    /** Number of instructions appended so far. */
    size_t size() const { return prog_.size(); }

    /** Resolve forward references and return the finished program. */
    Program build();

  private:
    struct Fixup
    {
        size_t instIndex;
        std::string label;
    };

    Program prog_;
    std::vector<Fixup> fixups_;
    bool built_ = false;
};

} // namespace pubs::isa

#endif // PUBS_ISA_BUILDER_HH
