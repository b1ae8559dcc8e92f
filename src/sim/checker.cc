#include "sim/checker.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "isa/isa.hh"

namespace pubs::sim
{

CommitChecker::CommitChecker(const isa::Program &program,
                             size_t historyDepth)
    : emu_(program), historyDepth_(historyDepth == 0 ? 1 : historyDepth)
{
}

void
CommitChecker::remember(const trace::DynInst &di, Cycle cycle)
{
    CommitRecord rec;
    rec.seq = commitsChecked_;
    rec.cycle = cycle;
    rec.pc = di.pc;
    rec.nextPc = di.nextPc;
    rec.effAddr = di.effAddr;
    rec.op = di.op;
    rec.dst = di.dst;
    rec.dstValue = di.dstValue;
    rec.hasDstValue = di.hasDstValue;
    history_.push_back(rec);
    if (history_.size() > historyDepth_)
        history_.pop_front();
}

std::string
CommitChecker::check(const trace::DynInst &committed, Cycle commitCycle)
{
    remember(committed, commitCycle);
    ++commitsChecked_;

    std::ostringstream diag;
    auto mismatch = [&diag](const char *field, uint64_t want,
                            uint64_t got) {
        diag << "  " << field << ": reference 0x" << std::hex << want
             << ", pipeline committed 0x" << got << std::dec << "\n";
    };

    trace::DynInst ref;
    if (!emu_.step(ref)) {
        diag << "  reference emulator already halted after "
             << (commitsChecked_ - 1)
             << " instructions, but the pipeline committed more\n";
    } else {
        if (ref.pc != committed.pc)
            mismatch("pc", ref.pc, committed.pc);
        if (ref.nextPc != committed.nextPc)
            mismatch("next-pc", ref.nextPc, committed.nextPc);
        if (ref.op != committed.op)
            mismatch("opcode", (uint64_t)ref.op, (uint64_t)committed.op);
        if (ref.dst != committed.dst)
            mismatch("dst reg", (uint64_t)(int64_t)ref.dst,
                     (uint64_t)(int64_t)committed.dst);
        if (ref.isMem() && ref.effAddr != committed.effAddr)
            mismatch("effective address", ref.effAddr, committed.effAddr);
        if (ref.isMem() && ref.memSize != committed.memSize)
            mismatch("access size", ref.memSize, committed.memSize);
        if (ref.isCondBranch() && ref.taken != committed.taken)
            mismatch("branch direction", ref.taken, committed.taken);
        // Architectural destination value, where the instruction
        // writes one.
        if (ref.hasDstValue && committed.hasDstValue &&
            ref.dstValue != committed.dstValue) {
            mismatch("dst value", ref.dstValue, committed.dstValue);
        }
    }

    std::string fields = diag.str();
    if (fields.empty())
        return "";

    ++divergences_;
    std::ostringstream out;
    out << "lockstep checker divergence at commit #"
        << (commitsChecked_ - 1) << " (cycle " << commitCycle << ", "
        << isa::mnemonic(committed.op) << " @ pc 0x" << std::hex
        << committed.pc << std::dec << "):\n"
        << fields << historyDump();
    return out.str();
}

std::string
CommitChecker::historyDump() const
{
    std::ostringstream out;
    out << "last " << history_.size() << " committed instructions "
        << "(oldest first):\n";
    for (const CommitRecord &rec : history_) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  #%-8" PRIu64 " cyc %-8" PRIu64
                      " pc 0x%-10" PRIx64 " %-5s next 0x%-10" PRIx64,
                      (uint64_t)rec.seq, (uint64_t)rec.cycle,
                      (uint64_t)rec.pc, isa::mnemonic(rec.op),
                      (uint64_t)rec.nextPc);
        out << line;
        if (rec.dst != invalidReg && rec.hasDstValue) {
            std::snprintf(line, sizeof(line), " r%d=0x%" PRIx64,
                          (int)rec.dst, rec.dstValue);
            out << line;
        }
        if (rec.effAddr != 0) {
            std::snprintf(line, sizeof(line), " ea 0x%" PRIx64,
                          rec.effAddr);
            out << line;
        }
        out << "\n";
    }
    return out.str();
}

} // namespace pubs::sim
