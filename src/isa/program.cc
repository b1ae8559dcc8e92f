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

Program::Image::Image(const Image &other)
{
    runs_.reserve(other.runs_.size());
    for (const Run &run : other.runs_) {
        Run &copy = runs_.emplace_back();
        copy.firstPage = run.firstPage;
        copy.pages.reserve(run.pages.size());
        for (const auto &page : run.pages)
            copy.pages.push_back(std::make_unique<Page>(*page));
    }
}

size_t
Program::Image::pageCount() const
{
    size_t count = 0;
    for (const Run &run : runs_)
        count += run.pages.size();
    return count;
}

Program::Image::Run &
Program::Image::cover(Addr first, Addr last, Addr rawFirst, Addr rawEnd)
{
    // [lo, hi): the runs that overlap or abut pages [first, last].
    auto lo = std::partition_point(
        runs_.begin(), runs_.end(), [first](const Run &run) {
            return run.firstPage + run.pages.size() < first;
        });
    if (lo != runs_.end() && lo->firstPage <= first &&
        last < lo->firstPage + lo->pages.size())
        return *lo;
    auto hi = lo;
    while (hi != runs_.end() && hi->firstPage <= last + 1)
        ++hi;

    Addr begin = first, end = last + 1;
    if (lo != hi) {
        begin = std::min(begin, lo->firstPage);
        end = std::max(end, (hi - 1)->firstPage + (hi - 1)->pages.size());
    }
    Run merged{begin, std::vector<std::unique_ptr<Page>>(end - begin)};
    for (auto it = lo; it != hi; ++it)
        std::move(it->pages.begin(), it->pages.end(),
                  merged.pages.begin() + (it->firstPage - begin));
    for (Addr num = begin; num < end; ++num) {
        std::unique_ptr<Page> &page = merged.pages[num - begin];
        if (page)
            continue;
        if (num >= rawFirst && num < rawEnd)
            page = std::make_unique_for_overwrite<Page>();
        else
            page = std::make_unique<Page>(); // value-initialised: zeros
    }
    return *runs_.insert(runs_.erase(lo, hi), std::move(merged));
}

Program::DataRegion
Program::region(Addr base, size_t bytes, bool overwritten)
{
    fatal_if(bytes == 0 || base + bytes - 1 < base,
             "data region of %zu bytes at %#llx is empty or wraps the "
             "address space",
             bytes, (unsigned long long)base);
    if (!image_)
        image_ = std::make_shared<Image>();
    else if (image_.use_count() > 1)
        image_ = std::make_shared<Image>(*image_); // unshare before writing
    const Addr first = base / pageBytes;
    const Addr last = (base + bytes - 1) / pageBytes;
    // [rawFirst, rawEnd): the pages the range covers whole, which an
    // overwriting caller fills, so they need no zeroing.
    const Addr rawFirst = first + (base % pageBytes != 0);
    Addr rawEnd = rawFirst;
    if (overwritten)
        rawEnd = std::max(rawFirst, last + ((base + bytes) % pageBytes == 0));
    return DataRegion(image_->cover(first, last, rawFirst, rawEnd), base);
}

void
Program::addData64(Addr addr, uint64_t value)
{
    dataRegion(addr, 8).put64(0, value);
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
