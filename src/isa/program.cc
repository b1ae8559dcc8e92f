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
        copy.pages = std::vector<Slot>(run.pages.size());
        copy.states = run.states;
        copy.word = run.word;
        if (!run.states.empty())
            continue;
        for (size_t i = 0; i < run.pages.size(); ++i) {
            const Page &page = *run.pages[i].get();
            copy.pages[i] = Slot(std::make_unique<Page>(page));
        }
    }
}

const Program::Page *
Program::Image::Slot::publish(std::unique_ptr<Page> page) const
{
    Page *expected = nullptr;
    if (std::atomic_ref<Page *>(page_).compare_exchange_strong(
            expected, page.get(), std::memory_order_acq_rel,
            std::memory_order_acquire))
        return page.release();
    return expected; // another reader's, with the same bytes
}

size_t
Program::Image::pageCount() const
{
    size_t count = 0;
    for (const Run &run : runs_)
        count += run.pages.size();
    return count;
}

size_t
Program::Image::publishedPages() const
{
    size_t count = 0;
    for (const Run &run : runs_)
        if (!run.states.empty())
            for (const Slot &slot : run.pages)
                count += slot.get() != nullptr;
    return count;
}

void
Program::Image::writeGenerated(const Run &run, size_t i, Page &page)
{
    Rng rng = run.states[i];
    for (size_t at = 0; at < pageBytes; at += 8)
        storeLe64(page.data() + at, run.word(rng.next()));
}

const Program::Page *
Program::Image::publish(const Run &run, size_t i)
{
    auto page = std::make_unique_for_overwrite<Page>();
    writeGenerated(run, i, *page);
    return run.pages[i].publish(std::move(page));
}

void
Program::Image::materialize(Run &run)
{
    for (size_t i = 0; i < run.pages.size(); ++i)
        if (!run.pages[i].get())
            publish(run, i);
    run.states.clear();
    run.word = nullptr;
}

std::pair<std::vector<Program::Image::Run>::iterator,
          std::vector<Program::Image::Run>::iterator>
Program::Image::touching(Addr first, Addr last)
{
    auto lo = std::partition_point(
        runs_.begin(), runs_.end(), [first](const Run &run) {
            return run.firstPage + run.pages.size() < first;
        });
    auto hi = lo;
    while (hi != runs_.end() && hi->firstPage <= last + 1)
        ++hi;
    return {lo, hi};
}

Program::Image::Run &
Program::Image::cover(Addr first, Addr last)
{
    auto [lo, hi] = touching(first, last);
    for (auto it = lo; it != hi; ++it)
        materialize(*it);
    if (lo != hi && lo->firstPage <= first &&
        last < lo->firstPage + lo->pages.size())
        return *lo;

    Addr begin = first, end = last + 1;
    if (lo != hi) {
        begin = std::min(begin, lo->firstPage);
        end = std::max(end, (hi - 1)->firstPage + (hi - 1)->pages.size());
    }
    Run merged{begin, std::vector<Slot>(end - begin), {}, nullptr};
    for (auto it = lo; it != hi; ++it)
        std::move(it->pages.begin(), it->pages.end(),
                  merged.pages.begin() + (it->firstPage - begin));
    for (Slot &slot : merged.pages)
        if (!slot.get())
            slot = Slot(std::make_unique<Page>()); // value-initialised
    return *runs_.insert(runs_.erase(lo, hi), std::move(merged));
}

void
Program::Image::generate(Addr first, size_t count, Rng &rng, WordFn word)
{
    Run run{first, std::vector<Slot>(count), {}, std::move(word)};
    run.states.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        run.states.push_back(rng);
        for (size_t w = 0; w < pageBytes / 8; ++w)
            rng.next();
    }
    auto [lo, hi] = touching(first, first + count - 1);
    if (lo == hi) {
        runs_.insert(lo, std::move(run));
        return;
    }
    // Data already installed overlaps or abuts the range: write the
    // pages now, over that data, so that no two runs touch.
    materialize(run);
    Run &into = cover(first, first + count - 1);
    std::move(run.pages.begin(), run.pages.end(),
              into.pages.begin() + (first - into.firstPage));
}

Program::Image &
Program::writableImage()
{
    if (!image_)
        image_ = std::make_shared<Image>();
    else if (image_.use_count() > 1)
        image_ = std::make_shared<Image>(*image_); // unshare before writing
    return *image_;
}

Program::DataRegion
Program::dataRegion(Addr base, size_t bytes)
{
    fatal_if(bytes == 0 || base + bytes - 1 < base,
             "data region of %zu bytes at %#llx is empty or wraps the "
             "address space",
             bytes, (unsigned long long)base);
    Image &image = writableImage();
    return DataRegion(
        image.cover(base / pageBytes, (base + bytes - 1) / pageBytes), base);
}

void
Program::fillRandom64(Addr base, size_t count, Rng &rng,
                      Image::WordFn word)
{
    constexpr size_t pageWords = pageBytes / 8;
    constexpr Addr lastPage = ~(Addr)0 / pageBytes;
    fatal_if(count == 0 || count % pageWords != 0 ||
                 base % pageBytes != 0 ||
                 count / pageWords - 1 > lastPage - base / pageBytes,
             "generated range of %zu words at %#llx does not cover "
             "whole pages of the address space",
             count, (unsigned long long)base);
    writableImage().generate(base / pageBytes, count / pageWords, rng,
                             std::move(word));
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
