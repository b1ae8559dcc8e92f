/**
 * @file
 * A Program is an ordered list of static instructions plus optional named
 * labels and an initial-data image. The program is loaded at a fixed
 * base PC; instruction i lives at basePc() + i * instBytes.
 */

#ifndef PUBS_ISA_PROGRAM_HH
#define PUBS_ISA_PROGRAM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace pubs::isa
{

class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    /** Code is loaded at this PC. */
    static constexpr Pc basePc() { return 0x1000; }

    /** Initial data is held in pages of this many bytes. */
    static constexpr size_t pageBytes = 4096;
    using Page = std::array<uint8_t, pageBytes>;

    /**
     * The memory a run starts from, as page runs: a run is a maximal
     * range of consecutive pages, indexed by one array of page blocks,
     * and the runs are disjoint and sorted by first page. Every page
     * that data was installed in lies in a run; bytes no data covered
     * read zero, as do pages outside every run.
     */
    class Image
    {
      public:
        struct Run
        {
            Addr firstPage = 0;
            /** Page firstPage + i, each an allocation of its own. */
            std::vector<std::unique_ptr<Page>> pages;
        };

        Image() = default;
        /** A deep copy: the copy's pages are allocations of its own. */
        Image(const Image &other);
        Image &operator=(const Image &) = delete;

        /** Page @p num, or nullptr if no run holds it. */
        const Page *
        page(Addr num) const
        {
            // The last run that starts at or before num, then an index.
            auto it = std::upper_bound(
                runs_.begin(), runs_.end(), num,
                [](Addr n, const Run &run) { return n < run.firstPage; });
            if (it == runs_.begin())
                return nullptr;
            --it;
            return num - it->firstPage < it->pages.size()
                       ? it->pages[num - it->firstPage].get()
                       : nullptr;
        }

        /** Number of pages over all runs. */
        size_t pageCount() const;

        const std::vector<Run> &runs() const { return runs_; }

        /** Call @p visit(num, page) for every page, in page order. */
        template <typename Visitor>
        void
        forEachPage(Visitor &&visit) const
        {
            for (const Run &run : runs_)
                for (size_t i = 0; i < run.pages.size(); ++i)
                    visit(run.firstPage + i, *run.pages[i]);
        }

      private:
        friend class Program;

        /**
         * The run holding pages [@p first, @p last]. A range no single
         * run holds becomes a new run, made once at its final size: it
         * takes over the pages of the runs it overlaps or abuts and
         * gets a new page for each one missing, zeroed unless it lies
         * in [@p rawFirst, @p rawEnd), which the caller overwrites.
         */
        Run &cover(Addr first, Addr last, Addr rawFirst, Addr rawEnd);

        std::vector<Run> runs_;
    };

    /**
     * Writes little-endian words into one range of an image, addressed
     * by byte offset from the range's base, straight into the pages of
     * the run that covers it.
     */
    class DataRegion
    {
      public:
        DataRegion(Image::Run &run, Addr base)
            : pages_(run.pages.data()),
              start_(base - run.firstPage * pageBytes)
        {}

        /** Store @p value at byte @p offset of the range. */
        void
        put64(size_t offset, uint64_t value)
        {
            const Addr at = start_ + offset;
            const size_t inPage = at % pageBytes;
            if (inPage + 8 <= pageBytes) {
                storeLe64(pages_[at / pageBytes]->data() + inPage, value);
                return;
            }
            for (unsigned i = 0; i < 8; ++i)
                (*pages_[(at + i) / pageBytes])[(at + i) % pageBytes] =
                    (uint8_t)(value >> (8 * i));
        }

      private:
        std::unique_ptr<Page> *pages_;
        Addr start_; ///< the range's base as a byte offset in the run
    };

    /** Append an instruction; returns its index. */
    size_t append(const Inst &inst);

    /** Define @p label as the index of the next appended instruction. */
    void defineLabel(const std::string &label);

    /** Index of @p label; fatal if undefined. */
    size_t labelIndex(const std::string &label) const;

    bool hasLabel(const std::string &label) const;

    /**
     * Install a little-endian 64-bit word at @p addr in the image, over
     * whatever was there; the word may straddle two pages. For scattered
     * data: an array goes in faster through dataRegion().
     */
    void addData64(Addr addr, uint64_t value);

    /**
     * A writer for the image's bytes [@p base, @p base + @p bytes), for
     * installing an array in one pass; fatal if the range is empty or
     * wraps the address space. Every page the range touches becomes an
     * image page, zero where nothing is written. An image that a copy of
     * this Program shares is copied first, as addData64 does. The writer
     * is valid until this Program is next copied or its image gains a
     * page.
     */
    DataRegion
    dataRegion(Addr base, size_t bytes)
    {
        return region(base, bytes, false);
    }

    /**
     * Install @p count little-endian words at @p base, @p base + 8, ...,
     * word i being the i-th value @p next() returns. The same as writing
     * them through dataRegion(), except that a page the words cover
     * whole is not zeroed first.
     */
    template <typename Next>
    void
    fillData64(Addr base, size_t count, Next &&next)
    {
        DataRegion words = region(base, count * 8, true);
        for (size_t i = 0; i < count; ++i)
            words.put64(i * 8, next());
    }

    const Inst &at(size_t index) const;
    Inst &at(size_t index);

    size_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }

    Pc pcOf(size_t index) const { return basePc() + index * instBytes; }

    /** Instruction index of @p pc; fatal if out of range / misaligned. */
    size_t indexOf(Pc pc) const;

    bool
    contains(Pc pc) const
    {
        return pc >= basePc() && pc < basePc() + size() * instBytes &&
               (pc - basePc()) % instBytes == 0;
    }

    const std::vector<Inst> &insts() const { return insts_; }

    /**
     * The initial data; nullptr until data is first installed. Copies of
     * this Program and the emulators built on it share the image; data
     * installed later goes into a copy, so none of them sees it.
     */
    std::shared_ptr<const Image> image() const { return image_; }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Full listing (one disassembled line per instruction, with labels). */
    std::string listing() const;

  private:
    std::string name_;
    std::vector<Inst> insts_;
    std::map<std::string, size_t> labels_;

    /**
     * dataRegion(), leaving a page the range covers whole unzeroed when
     * @p overwritten: the caller writes every byte of the range.
     */
    DataRegion region(Addr base, size_t bytes, bool overwritten);

    std::shared_ptr<Image> image_;
};

} // namespace pubs::isa

#endif // PUBS_ISA_PROGRAM_HH
