/**
 * @file
 * Functional emulator for the micro-ISA. Executes a Program one
 * instruction at a time, producing the dynamic-instruction stream the
 * timing model consumes (it plays the role SimpleScalar's functional core
 * played for the paper).
 */

#ifndef PUBS_EMU_EMULATOR_HH
#define PUBS_EMU_EMULATOR_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "trace/dyninst.hh"

namespace pubs::emu
{

/**
 * Sparse byte-addressable memory backed by 4 KB pages, over a program's
 * initial-data image. Reads of a page never written see the image (or
 * zeros); the first store to a page copies it from the image, or
 * allocates it zeroed, and this memory owns it from then on. Memories
 * share an image, which nothing writes, so building one costs nothing
 * per image byte. A checkpoint holds only the owned pages: the state is
 * a delta over the image, and restoring it keeps sharing the image.
 */
class SparseMemory
{
  public:
    static constexpr size_t pageBytes = isa::Program::pageBytes;
    using Image = isa::Program::Image;

    explicit SparseMemory(std::shared_ptr<const Image> image = nullptr)
        : image_(std::move(image))
    {}

    uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, uint8_t value);

    /** Little-endian multi-byte accessors; size 1..8 bytes. */
    uint64_t read(Addr addr, unsigned size) const;
    void write(Addr addr, uint64_t value, unsigned size);

    uint64_t read64(Addr a) const { return read(a, 8); }
    void write64(Addr a, uint64_t v) { write(a, v, 8); }

    double readF64(Addr addr) const;
    void writeF64(Addr addr, double value);

    /** Number of pages this memory owns: those stored to or restored. */
    size_t pagesOwned() const { return owned_.size(); }

    /**
     * Checkpoint the owned pages in page-number order, so the byte
     * stream is independent of hash-map iteration order and of the
     * access pattern that allocated them. The image is not written: a
     * restore reads it from the program, which the checkpoint's program
     * fingerprint pins.
     */
    void serialize(Serializer &s) const;
    /**
     * Restore a checkpoint's pages as the owned ones, in place of those
     * owned now, and keep the image for every other page.
     */
    void unserialize(Deserializer &d);

    /** Share @p other's image and deep-copy its owned pages. */
    void copyFrom(const SparseMemory &other);

  private:
    using Page = isa::Program::Page;

    const Page *imagePage(Addr num) const;
    const Page *findPage(Addr num) const;
    Page &getPage(Addr num);

    std::shared_ptr<const Image> image_;
    std::unordered_map<Addr, std::unique_ptr<Page>> owned_;

    // One-entry translation memo, so that a hit costs one compare: guest
    // accesses cluster on a page for stretches, and a hash probe per
    // access dominated the emulator's host profile on memory-bound
    // workloads. memoPage_ is what a read of page memoPageNum_ sees: an
    // owned page, an image page or nullptr (reads zero). memoOwned_ is
    // memoPage_ if this memory owns it and nullptr otherwise, so a store
    // through the memo never reaches the image; getPage refreshes both
    // on a page's first store. Owned pages are node-stable across
    // rehash, so the memo is reset only when the page set is replaced.
    mutable Addr memoPageNum_ = ~(Addr)0;
    mutable const Page *memoPage_ = nullptr;
    mutable Page *memoOwned_ = nullptr;
};

/**
 * The architectural machine: registers + memory + PC. step() retires one
 * instruction and reports it as a DynInst.
 */
class Emulator : public trace::InstSource
{
  public:
    explicit Emulator(const isa::Program &program);

    /** Reset architectural state and memory to the program's image. */
    void reset();

    /** Execute one instruction. @return false once halted. */
    bool step(trace::DynInst &out);

    /** InstSource interface. */
    bool next(trace::DynInst &out) override { return step(out); }
    const isa::Program &program() const override { return prog_; }

    bool halted() const { return halted_; }
    Pc pc() const { return pc_; }
    SeqNum instsRetired() const { return seq_; }

    /** Architectural integer register (r0 reads as zero). */
    int64_t intReg(RegId r) const;
    void setIntReg(RegId r, int64_t value);

    double fpReg(RegId r) const;
    void setFpReg(RegId r, double value);

    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    /**
     * Checkpoint the architectural state: registers, PC and the owned
     * memory pages (SparseMemory::serialize).
     */
    void serialize(Serializer &s) const;
    void unserialize(Deserializer &d);

    /**
     * Copy @p other's architectural state wholesale. Both emulators must
     * run the same program; used to resync the lockstep checker's
     * private emulator after a fast-forward or restore.
     */
    void copyArchState(const Emulator &other);

  private:
    Pc executeBranch(const isa::Inst &inst, bool &taken);

    const isa::Program &prog_;
    SparseMemory mem_;
    std::array<int64_t, numIntRegs> intRegs_{};
    std::array<double, numFpRegs> fpRegs_{};
    Pc pc_ = 0;
    SeqNum seq_ = 0;
    bool halted_ = false;
};

} // namespace pubs::emu

#endif // PUBS_EMU_EMULATOR_HH
