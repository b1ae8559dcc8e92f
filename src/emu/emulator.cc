#include "emu/emulator.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"
#include "common/logging.hh"

namespace pubs::emu
{

using isa::Opcode;

const SparseMemory::Page *
SparseMemory::imagePage(Addr num) const
{
    return image_ ? image_->page(num) : nullptr;
}

const SparseMemory::Page *
SparseMemory::findPage(Addr num) const
{
    if (num == memoPageNum_)
        return memoPage_;
    auto it = owned_.find(num);
    memoOwned_ = it == owned_.end() ? nullptr : it->second.get();
    memoPage_ = memoOwned_ ? memoOwned_ : imagePage(num);
    memoPageNum_ = num;
    return memoPage_;
}

SparseMemory::Page &
SparseMemory::getPage(Addr num)
{
    if (num == memoPageNum_ && memoOwned_)
        return *memoOwned_;
    auto it = owned_.find(num);
    if (it == owned_.end()) {
        // The page's first store: copy it from the image, or start from
        // zeros.
        const Page *initial = imagePage(num);
        it = owned_
                 .emplace(num, initial ? std::make_unique<Page>(*initial)
                                       : std::make_unique<Page>())
                 .first;
    }
    memoPageNum_ = num;
    memoPage_ = memoOwned_ = it->second.get();
    return *memoOwned_;
}

uint8_t
SparseMemory::readByte(Addr addr) const
{
    const Page *page = findPage(addr / pageBytes);
    return page ? (*page)[addr % pageBytes] : 0;
}

void
SparseMemory::writeByte(Addr addr, uint8_t value)
{
    getPage(addr / pageBytes)[addr % pageBytes] = value;
}

uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    panic_if(size == 0 || size > 8, "bad access size %u", size);
    Addr off = addr % pageBytes;
    if (off + size <= pageBytes) {
        // Whole access within one page: a single translation instead of
        // one per byte.
        const Page *page = findPage(addr / pageBytes);
        if (!page)
            return 0;
        uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= (uint64_t)(*page)[off + i] << (8 * i);
        return v;
    }
    uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= (uint64_t)readByte(addr + i) << (8 * i);
    return v;
}

void
SparseMemory::write(Addr addr, uint64_t value, unsigned size)
{
    panic_if(size == 0 || size > 8, "bad access size %u", size);
    Addr off = addr % pageBytes;
    if (off + size <= pageBytes) {
        Page &page = getPage(addr / pageBytes);
        for (unsigned i = 0; i < size; ++i)
            page[off + i] = (value >> (8 * i)) & 0xff;
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, (value >> (8 * i)) & 0xff);
}

double
SparseMemory::readF64(Addr addr) const
{
    uint64_t bits = read(addr, 8);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
SparseMemory::writeF64(Addr addr, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    write(addr, bits, 8);
}

void
SparseMemory::serialize(Serializer &s) const
{
    s.beginObject("sparse_memory");
    std::vector<std::pair<Addr, const Page *>> pages;
    pages.reserve(owned_.size());
    for (const auto &[num, page] : owned_)
        pages.emplace_back(num, page.get());
    std::sort(pages.begin(), pages.end());
    s.u64(pages.size());
    for (const auto &[num, page] : pages) {
        s.u64(num);
        s.bytes(page->data(), pageBytes);
    }
    s.endObject("sparse_memory");
}

void
SparseMemory::unserialize(Deserializer &d)
{
    d.beginObject("sparse_memory");
    owned_.clear();
    memoPageNum_ = ~(Addr)0;
    memoPage_ = memoOwned_ = nullptr;
    uint64_t count = d.u64();
    Addr prev = 0;
    for (uint64_t i = 0; i < count; ++i) {
        Addr num = d.u64();
        if (i > 0 && num <= prev)
            throw CheckpointError("checkpoint memory pages out of order");
        prev = num;
        auto page = std::make_unique<Page>();
        d.bytes(page->data(), pageBytes);
        owned_[num] = std::move(page);
    }
    d.endObject("sparse_memory");
}

void
SparseMemory::copyFrom(const SparseMemory &other)
{
    image_ = other.image_;
    owned_.clear();
    memoPageNum_ = ~(Addr)0;
    memoPage_ = memoOwned_ = nullptr;
    for (const auto &entry : other.owned_)
        owned_[entry.first] = std::make_unique<Page>(*entry.second);
}

Emulator::Emulator(const isa::Program &program) : prog_(program)
{
    fatal_if(prog_.empty(), "cannot emulate an empty program");
    reset();
}

void
Emulator::reset()
{
    intRegs_.fill(0);
    fpRegs_.fill(0.0);
    mem_ = SparseMemory(prog_.image());
    pc_ = prog_.basePc();
    seq_ = 0;
    halted_ = false;
}

int64_t
Emulator::intReg(RegId r) const
{
    panic_if(r < 0 || r >= numIntRegs, "int register %d out of range",
             (int)r);
    return r == 0 ? 0 : intRegs_[r];
}

void
Emulator::setIntReg(RegId r, int64_t value)
{
    panic_if(r < 0 || r >= numIntRegs, "int register %d out of range",
             (int)r);
    if (r != 0)
        intRegs_[r] = value;
}

double
Emulator::fpReg(RegId r) const
{
    panic_if(r < 0 || r >= numFpRegs, "fp register %d out of range",
             (int)r);
    return fpRegs_[r];
}

void
Emulator::setFpReg(RegId r, double value)
{
    panic_if(r < 0 || r >= numFpRegs, "fp register %d out of range",
             (int)r);
    fpRegs_[r] = value;
}

Pc
Emulator::executeBranch(const isa::Inst &inst, bool &taken)
{
    Pc target = prog_.pcOf((size_t)inst.imm);
    int64_t a = inst.src1 != invalidReg ? intReg(inst.src1) : 0;
    int64_t b = inst.src2 != invalidReg ? intReg(inst.src2) : 0;
    uint64_t ua = (uint64_t)a, ub = (uint64_t)b;

    switch (inst.op) {
      case Opcode::Beq:  taken = a == b; break;
      case Opcode::Bne:  taken = a != b; break;
      case Opcode::Blt:  taken = a < b; break;
      case Opcode::Bge:  taken = a >= b; break;
      case Opcode::Bltu: taken = ua < ub; break;
      case Opcode::Bgeu: taken = ua >= ub; break;
      case Opcode::J:
      case Opcode::Jal:
        taken = true;
        break;
      case Opcode::Jr:
        taken = true;
        target = (Pc)ua;
        break;
      default:
        panic("executeBranch on non-branch %s", isa::mnemonic(inst.op));
    }
    return taken ? target : pc_ + instBytes;
}

bool
Emulator::step(trace::DynInst &out)
{
    if (halted_)
        return false;

    size_t index = prog_.indexOf(pc_);
    const isa::Inst &inst = prog_.at(index);

    out = trace::DynInst();
    out.seq = seq_;
    out.pc = pc_;
    out.op = inst.op;
    out.dst = inst.dst;
    out.src1 = inst.src1;
    out.src2 = inst.src2;

    Pc nextPc = pc_ + instBytes;

    auto r = [this](RegId reg) { return intReg(reg); };
    // Guest integer arithmetic wraps; signed C++ arithmetic does not.
    auto u = [this](RegId reg) { return (uint64_t)intReg(reg); };
    auto f = [this](RegId reg) { return fpReg(reg); };

    switch (inst.op) {
      case Opcode::Add:
        setIntReg(inst.dst, (int64_t)(u(inst.src1) + u(inst.src2)));
        break;
      case Opcode::Sub:
        setIntReg(inst.dst, (int64_t)(u(inst.src1) - u(inst.src2)));
        break;
      case Opcode::And:  setIntReg(inst.dst, r(inst.src1) & r(inst.src2));
        break;
      case Opcode::Or:   setIntReg(inst.dst, r(inst.src1) | r(inst.src2));
        break;
      case Opcode::Xor:  setIntReg(inst.dst, r(inst.src1) ^ r(inst.src2));
        break;
      case Opcode::Sll:
        setIntReg(inst.dst,
                  (int64_t)((uint64_t)r(inst.src1)
                            << ((uint64_t)r(inst.src2) & 63)));
        break;
      case Opcode::Srl:
        setIntReg(inst.dst,
                  (int64_t)((uint64_t)r(inst.src1) >>
                            ((uint64_t)r(inst.src2) & 63)));
        break;
      case Opcode::Sra:
        setIntReg(inst.dst, r(inst.src1) >> ((uint64_t)r(inst.src2) & 63));
        break;
      case Opcode::Slt:
        setIntReg(inst.dst, r(inst.src1) < r(inst.src2) ? 1 : 0);
        break;
      case Opcode::Sltu:
        setIntReg(inst.dst,
                  (uint64_t)r(inst.src1) < (uint64_t)r(inst.src2) ? 1 : 0);
        break;
      case Opcode::Addi:
        setIntReg(inst.dst, (int64_t)(u(inst.src1) + (uint64_t)inst.imm));
        break;
      case Opcode::Andi: setIntReg(inst.dst, r(inst.src1) & inst.imm);
        break;
      case Opcode::Ori:  setIntReg(inst.dst, r(inst.src1) | inst.imm);
        break;
      case Opcode::Xori: setIntReg(inst.dst, r(inst.src1) ^ inst.imm);
        break;
      case Opcode::Slli:
        setIntReg(inst.dst,
                  (int64_t)((uint64_t)r(inst.src1) << (inst.imm & 63)));
        break;
      case Opcode::Srli:
        setIntReg(inst.dst,
                  (int64_t)((uint64_t)r(inst.src1) >> (inst.imm & 63)));
        break;
      case Opcode::Srai:
        setIntReg(inst.dst, r(inst.src1) >> (inst.imm & 63));
        break;
      case Opcode::Slti:
        setIntReg(inst.dst, r(inst.src1) < inst.imm ? 1 : 0);
        break;
      case Opcode::Li:   setIntReg(inst.dst, inst.imm);
        break;
      case Opcode::Mul:
        setIntReg(inst.dst, (int64_t)(u(inst.src1) * u(inst.src2)));
        break;
      // RISC-V results where C++ division is undefined: x / 0 = -1,
      // x % 0 = x, INT64_MIN / -1 = INT64_MIN and INT64_MIN % -1 = 0.
      case Opcode::Div: {
        int64_t d = r(inst.src2);
        setIntReg(inst.dst, d == 0    ? -1
                            : d == -1 ? (int64_t)(0 - u(inst.src1))
                                      : r(inst.src1) / d);
        break;
      }
      case Opcode::Rem: {
        int64_t d = r(inst.src2);
        setIntReg(inst.dst,
                  d == 0 ? r(inst.src1) : d == -1 ? 0 : r(inst.src1) % d);
        break;
      }
      case Opcode::Ld: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 8;
        setIntReg(inst.dst, (int64_t)mem_.read(addr, 8));
        break;
      }
      case Opcode::Lw: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 4;
        setIntReg(inst.dst, (int64_t)(int32_t)mem_.read(addr, 4));
        break;
      }
      case Opcode::St: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 8;
        mem_.write(addr, (uint64_t)r(inst.src2), 8);
        break;
      }
      case Opcode::Sw: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 4;
        mem_.write(addr, (uint64_t)r(inst.src2), 4);
        break;
      }
      case Opcode::Fld: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 8;
        setFpReg(inst.dst, mem_.readF64(addr));
        break;
      }
      case Opcode::Fst: {
        Addr addr = u(inst.src1) + (uint64_t)inst.imm;
        out.effAddr = addr;
        out.memSize = 8;
        mem_.writeF64(addr, f(inst.src2));
        break;
      }
      case Opcode::Fadd: setFpReg(inst.dst, f(inst.src1) + f(inst.src2));
        break;
      case Opcode::Fsub: setFpReg(inst.dst, f(inst.src1) - f(inst.src2));
        break;
      case Opcode::Fmul: setFpReg(inst.dst, f(inst.src1) * f(inst.src2));
        break;
      case Opcode::Fdiv: {
        double d = f(inst.src2);
        setFpReg(inst.dst, d == 0.0 ? 0.0 : f(inst.src1) / d);
        break;
      }
      case Opcode::Fcvt: setFpReg(inst.dst, (double)r(inst.src1));
        break;
      case Opcode::Ficvt: {
        // NaN and out-of-range values give INT64_MIN, as x86 does.
        double v = f(inst.src1);
        setIntReg(inst.dst,
                  v >= -0x1p63 && v < 0x1p63 ? (int64_t)v : INT64_MIN);
        break;
      }
      case Opcode::Fmov: setFpReg(inst.dst, f(inst.src1));
        break;
      case Opcode::Fclt:
        setIntReg(inst.dst, f(inst.src1) < f(inst.src2) ? 1 : 0);
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::J:
      case Opcode::Jr: {
        bool taken = false;
        nextPc = executeBranch(inst, taken);
        out.taken = taken;
        break;
      }
      case Opcode::Jal: {
        setIntReg(inst.dst, (int64_t)(pc_ + instBytes));
        bool taken = false;
        nextPc = executeBranch(inst, taken);
        out.taken = taken;
        break;
      }
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        nextPc = pc_;
        break;
      default:
        panic("unimplemented opcode %d", (int)inst.op);
    }

    // Record the architectural result for the lockstep commit checker.
    if (inst.dst != invalidReg) {
        isa::RegClass dstCls = isa::dstRegClass(inst);
        if (dstCls == isa::RegClass::Fp) {
            double v = fpReg(inst.dst);
            std::memcpy(&out.dstValue, &v, sizeof(v));
            out.hasDstValue = true;
        } else if (dstCls == isa::RegClass::Int) {
            out.dstValue = (uint64_t)intReg(inst.dst);
            out.hasDstValue = true;
        }
    }

    out.nextPc = nextPc;
    pc_ = nextPc;
    ++seq_;
    return true;
}

void
Emulator::serialize(Serializer &s) const
{
    s.beginObject("emulator");
    for (int64_t r : intRegs_)
        s.i64(r);
    for (double r : fpRegs_)
        s.f64(r);
    s.u64(pc_);
    s.u64(seq_);
    s.boolean(halted_);
    mem_.serialize(s);
    s.endObject("emulator");
}

void
Emulator::unserialize(Deserializer &d)
{
    d.beginObject("emulator");
    for (int64_t &r : intRegs_)
        r = d.i64();
    for (double &r : fpRegs_)
        r = d.f64();
    pc_ = d.u64();
    seq_ = d.u64();
    halted_ = d.boolean();
    if (!halted_ && !prog_.contains(pc_))
        throw CheckpointError("checkpoint PC outside the program");
    mem_.unserialize(d);
    d.endObject("emulator");
}

void
Emulator::copyArchState(const Emulator &other)
{
    intRegs_ = other.intRegs_;
    fpRegs_ = other.fpRegs_;
    pc_ = other.pc_;
    seq_ = other.seq_;
    halted_ = other.halted_;
    mem_.copyFrom(other.mem_);
}

} // namespace pubs::emu
