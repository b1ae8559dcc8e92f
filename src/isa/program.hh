/**
 * @file
 * A Program is an ordered list of static instructions plus optional named
 * labels and an initial-data image. The program is loaded at a fixed
 * base PC; instruction i lives at basePc() + i * instBytes.
 */

#ifndef PUBS_ISA_PROGRAM_HH
#define PUBS_ISA_PROGRAM_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

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
     * The memory a run starts from: page number -> bytes, for every page
     * that data was installed in. Bytes no data covered read zero, as do
     * pages absent from the image.
     */
    using Image = std::unordered_map<Addr, Page>;

    /** Append an instruction; returns its index. */
    size_t append(const Inst &inst);

    /** Define @p label as the index of the next appended instruction. */
    void defineLabel(const std::string &label);

    /** Index of @p label; fatal if undefined. */
    size_t labelIndex(const std::string &label) const;

    bool hasLabel(const std::string &label) const;

    /**
     * Install a little-endian 64-bit word at @p addr in the image, over
     * whatever was there; the word may straddle two pages.
     */
    void addData64(Addr addr, uint64_t value);

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

    /** Page @p num of an image this Program alone holds; created zeroed. */
    Page &ownPage(Addr num);

    std::shared_ptr<Image> image_;
    // Data is mostly installed in ascending words, so ownPage memoises the
    // last page; it is valid only while this Program alone holds image_.
    Addr memoPageNum_ = ~(Addr)0;
    Page *memoPage_ = nullptr;
};

} // namespace pubs::isa

#endif // PUBS_ISA_PROGRAM_HH
