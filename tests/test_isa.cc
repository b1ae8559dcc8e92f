/**
 * @file
 * Unit tests for the micro-ISA: opcode metadata, operand classification,
 * the program container, the fluent builder, and the text assembler.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/checkpoint.hh"

namespace pubs::isa
{
namespace
{

/** The byte at @p addr of @p prog's image (0 where no data was put). */
uint8_t
imageByte(const Program &prog, Addr addr)
{
    auto image = prog.image();
    const Program::Page *page =
        image ? image->page(addr / Program::pageBytes) : nullptr;
    return page ? (*page)[addr % Program::pageBytes] : 0;
}

/** The little-endian word at @p addr of @p prog's image. */
uint64_t
imageWord(const Program &prog, Addr addr)
{
    uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= (uint64_t)imageByte(prog, addr + i) << (8 * i);
    return v;
}

TEST(Isa, OpInfoTableIsComplete)
{
    for (size_t i = 0; i < (size_t)Opcode::NumOpcodes; ++i) {
        auto op = (Opcode)i;
        const OpInfo &info = opInfo(op);
        EXPECT_NE(info.mnemonic, nullptr);
        EXPECT_GT(info.latency, 0u) << info.mnemonic;
        EXPECT_LT((size_t)info.cls, (size_t)OpClass::NumClasses);
    }
}

TEST(Isa, MnemonicsAreUnique)
{
    std::set<std::string> seen;
    for (size_t i = 0; i < (size_t)Opcode::NumOpcodes; ++i)
        EXPECT_TRUE(seen.insert(mnemonic((Opcode)i)).second)
            << mnemonic((Opcode)i);
}

TEST(Isa, Classification)
{
    EXPECT_TRUE(isBranch(Opcode::Beq));
    EXPECT_TRUE(isBranch(Opcode::Jr));
    EXPECT_FALSE(isBranch(Opcode::Add));
    EXPECT_TRUE(isCondBranch(Opcode::Bgeu));
    EXPECT_FALSE(isCondBranch(Opcode::J));
    EXPECT_TRUE(isLoad(Opcode::Fld));
    EXPECT_TRUE(isStore(Opcode::Sw));
    EXPECT_TRUE(isMem(Opcode::Ld));
    EXPECT_FALSE(isMem(Opcode::Fadd));
}

TEST(Isa, LatenciesMatchTableI)
{
    EXPECT_EQ(opInfo(Opcode::Add).latency, 1u);
    EXPECT_EQ(opInfo(Opcode::Mul).latency, 3u);
    EXPECT_TRUE(opInfo(Opcode::Div).unpipelined);
    EXPECT_TRUE(opInfo(Opcode::Fdiv).unpipelined);
    EXPECT_FALSE(opInfo(Opcode::Fmul).unpipelined);
}

TEST(Isa, SrcRegClassForMemoryOps)
{
    // fst stores an FP value through an integer base register.
    Inst fst{Opcode::Fst, invalidReg, 3, 5, 16};
    EXPECT_EQ(srcRegClass(fst, 0), RegClass::Int);
    EXPECT_EQ(srcRegClass(fst, 1), RegClass::Fp);

    Inst fld{Opcode::Fld, 2, 3, invalidReg, 0};
    EXPECT_EQ(srcRegClass(fld, 0), RegClass::Int);
    EXPECT_EQ(dstRegClass(fld), RegClass::Fp);

    Inst add{Opcode::Add, 1, 2, 3, 0};
    EXPECT_EQ(srcRegClass(add, 0), RegClass::Int);
    EXPECT_EQ(srcRegClass(add, 1), RegClass::Int);
}

TEST(Isa, UnifiedRegSpace)
{
    EXPECT_EQ(unifiedReg(RegClass::Int, 0), 0);
    EXPECT_EQ(unifiedReg(RegClass::Int, 31), 31);
    EXPECT_EQ(unifiedReg(RegClass::Fp, 0), 32);
    EXPECT_EQ(unifiedReg(RegClass::Fp, 31), 63);
}

TEST(Isa, Disassemble)
{
    Inst add{Opcode::Add, 1, 2, 3, 0};
    EXPECT_EQ(disassemble(add), "add r1, r2, r3");
    Inst ld{Opcode::Ld, 4, 5, invalidReg, 16};
    EXPECT_EQ(disassemble(ld), "ld r4, r5, 16");
    Inst fadd{Opcode::Fadd, 1, 2, 3, 0};
    EXPECT_EQ(disassemble(fadd), "fadd f1, f2, f3");
}

TEST(Program, PcMapping)
{
    Program prog("t");
    prog.append({Opcode::Nop, invalidReg, invalidReg, invalidReg, 0});
    prog.append({Opcode::Halt, invalidReg, invalidReg, invalidReg, 0});
    EXPECT_EQ(prog.pcOf(0), Program::basePc());
    EXPECT_EQ(prog.pcOf(1), Program::basePc() + instBytes);
    EXPECT_EQ(prog.indexOf(prog.pcOf(1)), 1u);
    EXPECT_TRUE(prog.contains(prog.pcOf(0)));
    EXPECT_FALSE(prog.contains(prog.pcOf(0) + 1)); // misaligned
    EXPECT_FALSE(prog.contains(prog.pcOf(1) + instBytes)); // past end
}

TEST(Program, Labels)
{
    Program prog("t");
    prog.defineLabel("start");
    prog.append({Opcode::Nop, invalidReg, invalidReg, invalidReg, 0});
    prog.defineLabel("end");
    EXPECT_TRUE(prog.hasLabel("start"));
    EXPECT_EQ(prog.labelIndex("start"), 0u);
    EXPECT_EQ(prog.labelIndex("end"), 1u);
    EXPECT_FALSE(prog.hasLabel("nope"));
}

TEST(Program, DataInits)
{
    Program prog("t");
    EXPECT_EQ(prog.image(), nullptr);
    prog.addData64(0x2000, 0x1122334455667788ull);
    ASSERT_EQ(prog.image()->pageCount(), 1u);
    EXPECT_NE(prog.image()->page(0x2000 / Program::pageBytes), nullptr);
    EXPECT_EQ(imageByte(prog, 0x2000), 0x88); // little endian
    EXPECT_EQ(imageByte(prog, 0x2007), 0x11);
    EXPECT_EQ(imageByte(prog, 0x2008), 0x00); // the rest of the page
}

TEST(Program, OverlappingDataKeepsTheLaterBytes)
{
    Program prog("t");
    // Straddles pages 2 and 3; the second word overwrites its top half.
    prog.addData64(0x2ffc, 0x1111111122222222ull);
    prog.addData64(0x3000, 0x3333333344444444ull);
    ASSERT_EQ(prog.image()->pageCount(), 2u);
    EXPECT_EQ(imageWord(prog, 0x2ffc), 0x4444444422222222ull);
    EXPECT_EQ(imageWord(prog, 0x3000), 0x3333333344444444ull);
    prog.addData64(0x2ff8, 0x5555555555555555ull);
    EXPECT_EQ(imageWord(prog, 0x2ff8), 0x5555555555555555ull);
    EXPECT_EQ(imageWord(prog, 0x3000), 0x3333333344444444ull);
}

TEST(Program, CopyThenAddDataLeavesTheOriginal)
{
    Program original("t");
    original.addData64(0x2000, 1);
    Program copy = original;
    EXPECT_EQ(copy.image(), original.image()); // shared until written
    copy.addData64(0x2000, 2);
    copy.addData64(0x9000, 3);
    EXPECT_EQ(imageWord(original, 0x2000), 1u);
    EXPECT_EQ(original.image()->pageCount(), 1u);
    EXPECT_EQ(imageWord(copy, 0x2000), 2u);
    EXPECT_EQ(imageWord(copy, 0x9000), 3u);

    // The original, again alone with its image, writes it in place.
    original.addData64(0x2008, 4);
    EXPECT_EQ(imageWord(original, 0x2008), 4u);
    EXPECT_EQ(imageWord(copy, 0x2008), 0u);
}

/** Runs sorted by first page, none empty, none touching the next. */
void
expectMaximalRuns(const Program &prog)
{
    const auto &runs = prog.image()->runs();
    for (size_t i = 0; i < runs.size(); ++i) {
        EXPECT_GT(runs[i].pages.size(), 0u) << "run " << i;
        if (i > 0) {
            EXPECT_GT(runs[i].firstPage,
                      runs[i - 1].firstPage + runs[i - 1].pages.size())
                << "run " << i;
        }
    }
}

/** The same pages with the same bytes, and so the same fingerprint. */
void
expectSameImage(const Program &a, const Program &b)
{
    auto ia = a.image(), ib = b.image();
    ASSERT_EQ(ia->pageCount(), ib->pageCount());
    ia->forEachPage([&](Addr num, const Program::Page &page) {
        const Program::Page *other = ib->page(num);
        ASSERT_NE(other, nullptr) << "page " << num;
        EXPECT_TRUE(page == *other) << "page " << num;
    });
    EXPECT_EQ(sim::programFingerprint(a), sim::programFingerprint(b));
}

TEST(Program, RegionWritersMatchWordByWordData)
{
    // 1000 words from 0x2ffc: the first straddles pages 2 and 3, page 3
    // is covered whole and page 4 in part.
    constexpr Addr base = 0x2ffc;
    constexpr size_t words = 1000;
    std::vector<uint64_t> values(words);
    Rng rng(7);
    for (uint64_t &value : values)
        value = rng.next();

    // Freed page-sized blocks full of ones, for the fills' new pages to
    // reuse: a page left unzeroed that the words do not cover whole then
    // shows. (Sanitizer builds fill new blocks with garbage anyway.)
    {
        std::vector<std::unique_ptr<Program::Page>> dirty(64);
        for (auto &page : dirty) {
            page = std::make_unique_for_overwrite<Program::Page>();
            page->fill(0xff);
        }
    }

    Program region("t"), filled("t"), byWord("t");
    Program::DataRegion writer = region.dataRegion(base, words * 8);
    size_t next = 0;
    filled.fillData64(base, words, [&] { return values[next++]; });
    for (size_t i = 0; i < words; ++i) {
        writer.put64(i * 8, values[i]);
        byWord.addData64(base + i * 8, values[i]);
    }
    EXPECT_EQ(next, words);
    // Scattered words: one on a page of its own, one on the page below
    // the range (its run absorbs the range's); then a region over the
    // lone page, which must keep its word, and a fill that covers pages
    // 12 and 13 whole and page 14 in part, which must read zero after.
    for (Program *prog : {&region, &filled, &byWord}) {
        prog->addData64(0x9000, 0x99);
        prog->addData64(0x1ff8, 0x11);
        prog->dataRegion(0x8000, 3 * Program::pageBytes).put64(8, 0x88);
        uint64_t count = 0;
        prog->fillData64(0xc000, 2 * Program::pageBytes / 8 + 1,
                         [&] { return ++count; });
        expectMaximalRuns(*prog);
        EXPECT_EQ(prog->image()->runs().size(), 3u);
        EXPECT_EQ(imageWord(*prog, 0x9000), 0x99u);
        EXPECT_EQ(imageWord(*prog, 0x1ff8), 0x11u);
        EXPECT_EQ(imageWord(*prog, 0x8008), 0x88u);
        EXPECT_EQ(imageWord(*prog, 0xd000), 513u);
        EXPECT_EQ(imageWord(*prog, 0xe000), 1025u);
        for (Addr at = 0xe008; at < 0xf000; at += 8)
            ASSERT_EQ(imageWord(*prog, at), 0u) << at;
    }

    std::vector<Addr> pages;
    byWord.image()->forEachPage(
        [&](Addr num, const Program::Page &) { pages.push_back(num); });
    EXPECT_EQ(pages, (std::vector<Addr>{1, 2, 3, 4, 8, 9, 10, 12, 13, 14}));
    EXPECT_EQ(imageWord(region, base), values[0]);
    expectSameImage(region, byWord);
    expectSameImage(filled, byWord);
}

TEST(Program, DataRegionAfterACopyUnsharesTheImage)
{
    Program original("t");
    original.dataRegion(0x2000, 16).put64(0, 1);
    const uint32_t before = sim::programFingerprint(original);
    Program copy = original;
    EXPECT_EQ(copy.image(), original.image()); // shared until written
    copy.dataRegion(0x2000, 16).put64(0, 2);
    copy.dataRegion(0x2ffc, 8).put64(0, 3); // into a new page
    EXPECT_NE(copy.image(), original.image());
    EXPECT_EQ(imageWord(original, 0x2000), 1u);
    EXPECT_EQ(original.image()->pageCount(), 1u);
    EXPECT_EQ(sim::programFingerprint(original), before);
    EXPECT_EQ(imageWord(copy, 0x2000), 2u);
    EXPECT_EQ(imageWord(copy, 0x2ffc), 3u);
    EXPECT_EQ(copy.image()->pageCount(), 2u);
    expectMaximalRuns(copy);

    // The original, again alone with its image, writes it in place.
    const Program::Image *image = original.image().get();
    original.dataRegion(0x2008, 8).put64(0, 4);
    EXPECT_EQ(original.image().get(), image);
    EXPECT_EQ(imageWord(original, 0x2008), 4u);
    EXPECT_EQ(imageWord(copy, 0x2008), 0u);
}

TEST(Program, EmptyOrWrappingDataRegionIsFatal)
{
    Program prog("t");
    EXPECT_THROW(prog.dataRegion(0x2000, 0), SimError);
    EXPECT_THROW(prog.addData64(~(Addr)3, 1), SimError); // past 2^64
    EXPECT_EQ(prog.image(), nullptr);
}

TEST(Builder, ForwardAndBackwardLabels)
{
    ProgramBuilder b("t");
    b.label("top");
    b.addi(1, 1, 1);
    b.beq(1, 2, "done");   // forward reference
    b.jump("top");         // backward reference
    b.label("done");
    b.halt();
    Program prog = b.build();
    EXPECT_EQ(prog.at(1).imm, 3); // "done"
    EXPECT_EQ(prog.at(2).imm, 0); // "top"
}

TEST(Builder, ListingContainsLabels)
{
    ProgramBuilder b("t");
    b.label("loop").addi(1, 1, 1).jump("loop");
    Program prog = b.build();
    std::string listing = prog.listing();
    EXPECT_NE(listing.find("loop:"), std::string::npos);
    EXPECT_NE(listing.find("addi r1, r1, 1"), std::string::npos);
}

TEST(Builder, StoreOperandShape)
{
    ProgramBuilder b("t");
    b.st(7, 2, 24).fst(3, 4, 8);
    Program prog = b.build();
    // store value is src2, base is src1.
    EXPECT_EQ(prog.at(0).src2, 7);
    EXPECT_EQ(prog.at(0).src1, 2);
    EXPECT_EQ(prog.at(0).imm, 24);
    EXPECT_EQ(prog.at(1).src2, 3);
}

TEST(Assembler, RoundTripBasicProgram)
{
    const char *src = R"(
        # compute 5 + 7
        li   r1, 5
        li   r2, 7
        add  r3, r1, r2
        halt
    )";
    Program prog = assemble(src);
    ASSERT_EQ(prog.size(), 4u);
    EXPECT_EQ(prog.at(0).op, Opcode::Li);
    EXPECT_EQ(prog.at(2).op, Opcode::Add);
    EXPECT_EQ(prog.at(2).dst, 3);
}

TEST(Assembler, LabelsAndBranches)
{
    const char *src = R"(
        li r1, 0
    loop:
        addi r1, r1, 1
        blt  r1, r2, loop
        halt
    )";
    Program prog = assemble(src);
    EXPECT_EQ(prog.at(2).imm, 1); // loop label index
}

TEST(Assembler, MemoryAndFpForms)
{
    const char *src = R"(
        ld   r2, r1, 8
        st   r2, r1, 16
        fld  f1, r1, 0
        fst  f1, r1, 8
        fadd f2, f1, f1
        fcvt f3, r2
        jal  r31, fn
    fn: jr   r31
        .data64 0x2000 42
    )";
    Program prog = assemble(src);
    EXPECT_EQ(prog.size(), 8u);
    EXPECT_EQ(prog.at(0).op, Opcode::Ld);
    EXPECT_EQ(prog.at(1).src2, 2);
    EXPECT_EQ(prog.at(5).op, Opcode::Fcvt);
    ASSERT_EQ(prog.image()->pageCount(), 1u);
    EXPECT_EQ(imageWord(prog, 0x2000), 42u);
}

TEST(Assembler, HexAndNegativeImmediates)
{
    Program prog = assemble("li r1, 0x10\nli r2, -5\nhalt\n");
    EXPECT_EQ(prog.at(0).imm, 16);
    EXPECT_EQ(prog.at(1).imm, -5);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    try {
        assemble("nop\nbogus r1, r2\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(Assembler, RejectsUndefinedLabel)
{
    EXPECT_THROW(assemble("j nowhere\n"), AsmError);
}

TEST(Assembler, RejectsDuplicateLabel)
{
    EXPECT_THROW(assemble("a:\nnop\na:\nnop\n"), AsmError);
}

TEST(Assembler, RejectsWrongOperandCount)
{
    EXPECT_THROW(assemble("add r1, r2\n"), AsmError);
    EXPECT_THROW(assemble("halt r1\n"), AsmError);
}

TEST(Assembler, RejectsWrongRegisterClass)
{
    EXPECT_THROW(assemble("add r1, f2, r3\n"), AsmError);
    EXPECT_THROW(assemble("fadd r1, f2, f3\n"), AsmError);
    EXPECT_THROW(assemble("add r1, r2, r99\n"), AsmError);
}

} // namespace
} // namespace pubs::isa
