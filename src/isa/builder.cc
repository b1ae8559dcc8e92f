#include "isa/builder.hh"

#include "common/logging.hh"

namespace pubs::isa
{

namespace
{

void
checkReg(RegClass cls, RegId r)
{
    if (cls == RegClass::None) {
        fatal_if(r != invalidReg, "operand present where none expected");
        return;
    }
    int limit = cls == RegClass::Fp ? numFpRegs : numIntRegs;
    fatal_if(r < 0 || r >= limit, "register %d out of range", (int)r);
}

} // namespace

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    prog_.defineLabel(name);
    return *this;
}

ProgramBuilder &
ProgramBuilder::rrr(Opcode op, RegId dst, RegId src1, RegId src2)
{
    const OpInfo &info = opInfo(op);
    fatal_if(info.hasImm, "opcode %s needs an immediate", info.mnemonic);
    Inst inst{op, dst, src1, src2, 0};
    checkReg(info.dstClass, dst);
    if (src1 != invalidReg)
        checkReg(srcRegClass(inst, 0), src1);
    if (src2 != invalidReg)
        checkReg(srcRegClass(inst, 1), src2);
    prog_.append(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::rri(Opcode op, RegId dst, RegId src1, int64_t imm)
{
    const OpInfo &info = opInfo(op);
    fatal_if(!info.hasImm, "opcode %s takes no immediate", info.mnemonic);
    Inst inst{op, dst, src1, invalidReg, imm};
    checkReg(info.dstClass, dst);
    checkReg(srcRegClass(inst, 0), src1);
    prog_.append(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::li(RegId dst, int64_t imm)
{
    checkReg(RegClass::Int, dst);
    fatal_if(imm < INT32_MIN || imm > INT32_MAX,
             "li immediate %lld out of 32-bit range", (long long)imm);
    prog_.append({Opcode::Li, dst, invalidReg, invalidReg, imm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::load(Opcode op, RegId dst, RegId base, int64_t offset)
{
    fatal_if(!isLoad(op), "load() with non-load opcode %s", mnemonic(op));
    Inst inst{op, dst, base, invalidReg, offset};
    checkReg(dstRegClass(inst), dst);
    checkReg(RegClass::Int, base);
    prog_.append(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::store(Opcode op, RegId value, RegId base, int64_t offset)
{
    fatal_if(!isStore(op), "store() with non-store opcode %s", mnemonic(op));
    Inst inst{op, invalidReg, base, value, offset};
    checkReg(RegClass::Int, base);
    checkReg(srcRegClass(inst, 1), value);
    prog_.append(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::branch(Opcode op, RegId a, RegId b, const std::string &target)
{
    fatal_if(!isCondBranch(op), "branch() with non-branch opcode %s",
             mnemonic(op));
    checkReg(RegClass::Int, a);
    checkReg(RegClass::Int, b);
    size_t idx = prog_.append({op, invalidReg, a, b, 0});
    fixups_.push_back({idx, target});
    return *this;
}

ProgramBuilder &
ProgramBuilder::jump(const std::string &target)
{
    size_t idx = prog_.append({Opcode::J, invalidReg, invalidReg,
                               invalidReg, 0});
    fixups_.push_back({idx, target});
    return *this;
}

ProgramBuilder &
ProgramBuilder::jal(RegId link, const std::string &target)
{
    checkReg(RegClass::Int, link);
    size_t idx = prog_.append({Opcode::Jal, link, invalidReg,
                               invalidReg, 0});
    fixups_.push_back({idx, target});
    return *this;
}

ProgramBuilder &
ProgramBuilder::jr(RegId target)
{
    checkReg(RegClass::Int, target);
    prog_.append({Opcode::Jr, invalidReg, target, invalidReg, 0});
    return *this;
}

ProgramBuilder &
ProgramBuilder::nop()
{
    prog_.append({Opcode::Nop, invalidReg, invalidReg, invalidReg, 0});
    return *this;
}

ProgramBuilder &
ProgramBuilder::halt()
{
    prog_.append({Opcode::Halt, invalidReg, invalidReg, invalidReg, 0});
    return *this;
}

ProgramBuilder &
ProgramBuilder::data64(Addr addr, uint64_t value)
{
    prog_.addData64(addr, value);
    return *this;
}

ProgramBuilder &
ProgramBuilder::dataF64(Addr addr, double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    prog_.addData64(addr, bits);
    return *this;
}

Program
ProgramBuilder::build()
{
    panic_if(built_, "ProgramBuilder::build() called twice");
    built_ = true;
    for (const auto &fixup : fixups_) {
        size_t target = prog_.labelIndex(fixup.label);
        prog_.at(fixup.instIndex).imm = (int64_t)target;
    }
    fixups_.clear();
    return std::move(prog_);
}

} // namespace pubs::isa
