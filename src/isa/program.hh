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
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
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
     * range of consecutive pages, indexed by one array of page slots,
     * and the runs are disjoint and sorted by first page. Every page
     * that data was installed in lies in a run; bytes no data covered
     * read zero, as do pages outside every run.
     *
     * A generated run (Program::fillRandom64) holds no bytes at first,
     * only the RNG state at each page's first word: page() writes a
     * page the first time any reader asks for it and publishes it in
     * its slot, so every later reader, on any thread, gets that page.
     * Readers need no lock: two that race both write the same bytes and
     * one of them publishes. A generated run touches no other run.
     */
    class Image
    {
      public:
        /** Maps a generated run's draw to the word stored for it. */
        using WordFn = std::function<uint64_t(uint64_t draw)>;

        /**
         * One page of a run, which the slot owns. A written run's slots
         * all hold a page. A generated run's hold nullptr until the
         * page's first read, then the page that read published. The
         * const members, which readers of a shared image use, access the
         * pointer atomically. The others are for a Program writing an
         * image nothing else holds and access it plainly: with an atomic
         * member, writing `mcf_like`'s ring took measurably longer.
         */
        class Slot
        {
          public:
            Slot() = default;
            explicit Slot(std::unique_ptr<Page> page)
                : page_(page.release())
            {}
            Slot(Slot &&other) noexcept
                : page_(std::exchange(other.page_, nullptr))
            {}
            Slot &
            operator=(Slot &&other) noexcept
            {
                std::swap(page_, other.page_);
                return *this;
            }
            ~Slot() { delete page_; }

            Page *get() { return page_; }
            const Page *
            get() const
            {
                return std::atomic_ref<Page *>(page_).load(
                    std::memory_order_acquire);
            }

            /**
             * Publish @p page unless another reader published first;
             * either way, the page the slot now holds.
             */
            const Page *publish(std::unique_ptr<Page> page) const;

          private:
            mutable Page *page_ = nullptr;
        };

        struct Run
        {
            Addr firstPage = 0;
            /** Page firstPage + i. */
            std::vector<Slot> pages;
            /**
             * A generated run's state at the first word of each page
             * (empty for a written run); word j of page i is
             * word(the j-th draw from states[i]).
             */
            std::vector<Rng> states;
            WordFn word;
        };

        Image() = default;
        /**
         * A deep copy: the copy's written pages are allocations of its
         * own, and it copies each generated run's page states, not the
         * pages published so far.
         */
        Image(const Image &other);
        Image &operator=(const Image &) = delete;

        /**
         * Page @p num, or nullptr if no run holds it; a generated page
         * is written and published by the first call that asks for it.
         */
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
            const size_t i = num - it->firstPage;
            if (i >= it->pages.size())
                return nullptr;
            const Page *page = it->pages[i].get();
            return page ? page : publish(*it, i);
        }

        /** Number of pages over all runs, generated ones included. */
        size_t pageCount() const;

        /** Generated pages that a reader has published so far. */
        size_t publishedPages() const;

        const std::vector<Run> &runs() const { return runs_; }

        /**
         * Call @p visit(num, page) for every page, in page order. A
         * generated page not yet published is written into one scratch
         * page for the call and not kept, so a walk fills no memory.
         */
        template <typename Visitor>
        void
        forEachPage(Visitor &&visit) const
        {
            Page scratch;
            for (const Run &run : runs_) {
                for (size_t i = 0; i < run.pages.size(); ++i) {
                    const Page *page = run.pages[i].get();
                    if (!page) {
                        writeGenerated(run, i, scratch);
                        page = &scratch;
                    }
                    visit(run.firstPage + i, *page);
                }
            }
        }

      private:
        friend class Program;

        /** Write page @p i of generated run @p run into @p page. */
        static void writeGenerated(const Run &run, size_t i, Page &page);

        /** page()'s slow path: write page @p i of @p run, publish it. */
        static const Page *publish(const Run &run, size_t i);

        /**
         * Write every page of generated run @p run not yet published
         * and make it a written run.
         */
        static void materialize(Run &run);

        /**
         * [lo, hi): the runs that overlap or abut pages [@p first,
         * @p last].
         */
        std::pair<std::vector<Run>::iterator, std::vector<Run>::iterator>
        touching(Addr first, Addr last);

        /**
         * The written run holding pages [@p first, @p last]. Generated
         * runs the range overlaps or abuts are materialized first. A
         * range no single run holds becomes a new run, made once at its
         * final size: it takes over the pages of the runs it overlaps
         * or abuts and gets a zeroed page for each one missing.
         */
        Run &cover(Addr first, Addr last);

        /**
         * Install @p count generated pages from page @p first, stepping
         * @p rng past their draws. Over or next to data already
         * installed, the pages are written at once, as cover() would.
         */
        void generate(Addr first, size_t count, Rng &rng, WordFn word);

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
                storeLe64(pages_[at / pageBytes].get()->data() + inPage,
                          value);
                return;
            }
            for (unsigned i = 0; i < 8; ++i)
                (*pages_[(at + i) / pageBytes].get())[(at + i) %
                                                      pageBytes] =
                    (uint8_t)(value >> (8 * i));
        }

      private:
        Image::Slot *pages_;
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
     * image page, zero where nothing is written; a generated run the
     * range overlaps or abuts is written out first. An image that a
     * copy of this Program shares is copied first, as addData64 does.
     * The writer is valid until this Program is next copied or its
     * image gains a page.
     */
    DataRegion dataRegion(Addr base, size_t bytes);

    /**
     * Install @p count little-endian words at @p base, @p base + 8, ...,
     * word i being word(the i-th draw from @p rng), and leave @p rng
     * past those draws. Nothing is written yet: the image keeps the
     * RNG state at each page's first word (32 B per page) and writes a
     * page when it is first read (see Image). Fatal unless @p base is
     * page-aligned and the words fill whole pages.
     */
    void fillRandom64(Addr base, size_t count, Rng &rng,
                      Image::WordFn word);

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

    /** Full listing (one disassembled line per instruction, with labels). */
    std::string listing() const;

  private:
    std::string name_;
    std::vector<Inst> insts_;
    std::map<std::string, size_t> labels_;

    /** The image, made or unshared so that this Program may write it. */
    Image &writableImage();

    std::shared_ptr<Image> image_;
};

} // namespace pubs::isa

#endif // PUBS_ISA_PROGRAM_HH
