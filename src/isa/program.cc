#include "isa/program.hh"

#include <sstream>

#include "common/logging.hh"

namespace pubs::isa
{

size_t
Program::append(const Inst &inst)
{
    insts_.push_back(inst);
    return insts_.size() - 1;
}

void
Program::defineLabel(const std::string &label)
{
    fatal_if(labels_.count(label), "duplicate label '%s'", label.c_str());
    labels_[label] = insts_.size();
}

size_t
Program::labelIndex(const std::string &label) const
{
    auto it = labels_.find(label);
    fatal_if(it == labels_.end(), "undefined label '%s'", label.c_str());
    return it->second;
}

bool
Program::hasLabel(const std::string &label) const
{
    return labels_.count(label) != 0;
}

Program::Page &
Program::ownPage(Addr num)
{
    if (num == memoPageNum_ && memoPage_ && image_.use_count() == 1)
        return *memoPage_;
    if (!image_)
        image_ = std::make_shared<Image>();
    else if (image_.use_count() > 1)
        image_ = std::make_shared<Image>(*image_); // unshare before writing
    memoPageNum_ = num;
    memoPage_ = &(*image_)[num];
    return *memoPage_;
}

void
Program::addData64(Addr addr, uint64_t value)
{
    Addr off = addr % pageBytes;
    if (off + 8 <= pageBytes) {
        Page &page = ownPage(addr / pageBytes);
        for (unsigned i = 0; i < 8; ++i)
            page[off + i] = (value >> (8 * i)) & 0xff;
        return;
    }
    for (unsigned i = 0; i < 8; ++i)
        ownPage((addr + i) / pageBytes)[(addr + i) % pageBytes] =
            (value >> (8 * i)) & 0xff;
}

const Inst &
Program::at(size_t index) const
{
    panic_if(index >= insts_.size(), "instruction index %zu out of range",
             index);
    return insts_[index];
}

Inst &
Program::at(size_t index)
{
    panic_if(index >= insts_.size(), "instruction index %zu out of range",
             index);
    return insts_[index];
}

size_t
Program::indexOf(Pc pc) const
{
    panic_if(!contains(pc), "pc %#llx outside program",
             (unsigned long long)pc);
    return (pc - basePc()) / instBytes;
}

std::string
Program::listing() const
{
    // Invert the label map for printing.
    std::map<size_t, std::vector<std::string>> byIndex;
    for (const auto &[name, idx] : labels_)
        byIndex[idx].push_back(name);

    std::ostringstream out;
    for (size_t i = 0; i < insts_.size(); ++i) {
        auto it = byIndex.find(i);
        if (it != byIndex.end())
            for (const auto &label : it->second)
                out << label << ":\n";
        char pc[32];
        std::snprintf(pc, sizeof(pc), "%6llx:  ",
                      (unsigned long long)pcOf(i));
        out << pc << disassemble(insts_[i]) << "\n";
    }
    return out.str();
}

} // namespace pubs::isa
