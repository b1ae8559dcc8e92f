#include "isa/isa.hh"

#include <array>
#include <sstream>

#include "common/logging.hh"

namespace pubs::isa
{

namespace
{

using enum OpClass;
using enum RegClass;

constexpr size_t numOps = (size_t)Opcode::NumOpcodes;

// One row per opcode, in Opcode declaration order.
const std::array<OpInfo, numOps> opTable = {{
    // mnemonic  class   lat unpip  dst   src   imm
    {"add",   IntAlu, 1, false, Int,  Int,  false},
    {"sub",   IntAlu, 1, false, Int,  Int,  false},
    {"and",   IntAlu, 1, false, Int,  Int,  false},
    {"or",    IntAlu, 1, false, Int,  Int,  false},
    {"xor",   IntAlu, 1, false, Int,  Int,  false},
    {"sll",   IntAlu, 1, false, Int,  Int,  false},
    {"srl",   IntAlu, 1, false, Int,  Int,  false},
    {"sra",   IntAlu, 1, false, Int,  Int,  false},
    {"slt",   IntAlu, 1, false, Int,  Int,  false},
    {"sltu",  IntAlu, 1, false, Int,  Int,  false},
    {"addi",  IntAlu, 1, false, Int,  Int,  true},
    {"andi",  IntAlu, 1, false, Int,  Int,  true},
    {"ori",   IntAlu, 1, false, Int,  Int,  true},
    {"xori",  IntAlu, 1, false, Int,  Int,  true},
    {"slli",  IntAlu, 1, false, Int,  Int,  true},
    {"srli",  IntAlu, 1, false, Int,  Int,  true},
    {"srai",  IntAlu, 1, false, Int,  Int,  true},
    {"slti",  IntAlu, 1, false, Int,  Int,  true},
    {"li",    IntAlu, 1, false, Int,  None, true},
    {"mul",   IntMul, 3, false, Int,  Int,  false},
    {"div",   IntDiv, 20, true, Int,  Int,  false},
    {"rem",   IntDiv, 20, true, Int,  Int,  false},
    {"ld",    Load,  1, false, Int,  Int,  true},
    {"lw",    Load,  1, false, Int,  Int,  true},
    {"st",    Store, 1, false, None, Int,  true},
    {"sw",    Store, 1, false, None, Int,  true},
    {"fld",   Load,  1, false, Fp,   Int,  true},
    {"fst",   Store, 1, false, None, Fp,   true},
    {"fadd",  FpAlu, 3, false, Fp,   Fp,   false},
    {"fsub",  FpAlu, 3, false, Fp,   Fp,   false},
    {"fmul",  FpMul, 4, false, Fp,   Fp,   false},
    {"fdiv",  FpDiv, 12, true, Fp,   Fp,   false},
    {"fcvt",  FpAlu, 3, false, Fp,   Int,  false},
    {"ficvt", FpAlu, 3, false, Int,  Fp,   false},
    {"fmov",  FpAlu, 1, false, Fp,   Fp,   false},
    {"fclt",  FpAlu, 3, false, Int,  Fp,   false},
    {"beq",   Branch, 1, false, None, Int, true},
    {"bne",   Branch, 1, false, None, Int, true},
    {"blt",   Branch, 1, false, None, Int, true},
    {"bge",   Branch, 1, false, None, Int, true},
    {"bltu",  Branch, 1, false, None, Int, true},
    {"bgeu",  Branch, 1, false, None, Int, true},
    {"j",     Branch, 1, false, None, None, true},
    {"jal",   Branch, 1, false, Int,  None, true},
    {"jr",    Branch, 1, false, None, Int, false},
    {"nop",   OpClass::Nop, 1, false, None, None, false},
    {"halt",  OpClass::Nop, 1, false, None, None, false},
}};

} // namespace

const OpInfo &
opInfo(Opcode op)
{
    panic_if((size_t)op >= numOps, "bad opcode %d", (int)op);
    return opTable[(size_t)op];
}

OpClass
opClass(Opcode op)
{
    return opInfo(op).cls;
}

const char *
mnemonic(Opcode op)
{
    return opInfo(op).mnemonic;
}

RegClass
srcRegClass(const Inst &inst, int which)
{
    const OpInfo &info = opInfo(inst.op);
    if (isMem(inst.op))
        return which == 0 ? RegClass::Int : info.srcClass;
    return info.srcClass;
}

RegClass
dstRegClass(const Inst &inst)
{
    return opInfo(inst.op).dstClass;
}

std::string
regName(RegClass cls, RegId r)
{
    if (cls == RegClass::None || r == invalidReg)
        return "-";
    std::ostringstream out;
    out << (cls == RegClass::Fp ? 'f' : 'r') << r;
    return out.str();
}

std::string
disassemble(const Inst &inst)
{
    const OpInfo &info = opInfo(inst.op);
    std::ostringstream out;
    out << info.mnemonic;

    auto emit = [&out, first = true](const std::string &s) mutable {
        out << (first ? " " : ", ") << s;
        first = false;
    };

    if (inst.dst != invalidReg)
        emit(regName(info.dstClass, inst.dst));
    if (inst.src1 != invalidReg)
        emit(regName(srcRegClass(inst, 0), inst.src1));
    if (inst.src2 != invalidReg)
        emit(regName(srcRegClass(inst, 1), inst.src2));
    if (info.hasImm)
        emit(std::to_string(inst.imm));
    return out.str();
}

} // namespace pubs::isa
