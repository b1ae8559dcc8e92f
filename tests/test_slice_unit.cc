/**
 * @file
 * Tests for the decode-time slice unit: branch-slice construction via
 * def_tab/brslice_tab, confidence interplay, transitive (multi-hop)
 * linking, and the "blind" model.
 */

#include <gtest/gtest.h>

#include "pubs/slice_unit.hh"

namespace pubs::pubs
{
namespace
{

using isa::Opcode;
using trace::DynInst;

DynInst
alu(Pc pc, RegId dst, RegId src1, RegId src2 = invalidReg)
{
    DynInst di;
    di.pc = pc;
    di.op = Opcode::Add;
    di.dst = dst;
    di.src1 = src1;
    di.src2 = src2;
    return di;
}

DynInst
load(Pc pc, RegId dst, RegId base)
{
    DynInst di;
    di.pc = pc;
    di.op = Opcode::Ld;
    di.dst = dst;
    di.src1 = base;
    di.effAddr = 0x2000;
    di.memSize = 8;
    return di;
}

DynInst
branch(Pc pc, RegId a, RegId b)
{
    DynInst di;
    di.pc = pc;
    di.op = Opcode::Blt;
    di.src1 = a;
    di.src2 = b;
    return di;
}

/** Iterate one "loop body" through the slice unit, returning the
 *  decision for each instruction. */
std::vector<SliceDecision>
decodeAll(SliceUnit &unit, const std::vector<DynInst> &body)
{
    std::vector<SliceDecision> out;
    for (const auto &di : body)
        out.push_back(unit.decode(di));
    return out;
}

TEST(SliceUnit, BranchItselfIsInItsSlice)
{
    SliceUnit unit({});
    DynInst br = branch(0x1000, 1, 2);
    SliceDecision d = unit.decode(br);
    EXPECT_TRUE(d.inBranchSlice);
    // No conf_tab entry yet: treated as confident.
    EXPECT_FALSE(d.unconfident);
}

TEST(SliceUnit, DirectProducerJoinsSliceOnSecondPass)
{
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, /*dst=*/3, /*src=*/4),
        branch(0x1004, /*a=*/3, /*b=*/0),
    };
    // First pass: the producer decodes before the branch has linked it.
    auto first = decodeAll(unit, body);
    EXPECT_FALSE(first[0].inBranchSlice);
    EXPECT_TRUE(first[1].inBranchSlice);
    // Second pass: the brslice_tab now knows 0x1000 feeds the branch.
    auto second = decodeAll(unit, body);
    EXPECT_TRUE(second[0].inBranchSlice);
}

TEST(SliceUnit, TransitiveLinkingWalksBackwards)
{
    // c = f(a); d = g(c); branch(d): after two passes, both f and g are
    // slice members (step 2/3 of Section III-A2).
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, 5, 6),      // a -> r5
        alu(0x1004, 7, 5),      // r5 -> r7
        branch(0x1008, 7, 0),   // branch on r7
    };
    decodeAll(unit, body); // pass 1: links producer of r7 (0x1004)
    decodeAll(unit, body); // pass 2: 0x1004 in slice; links 0x1000
    auto third = decodeAll(unit, body);
    EXPECT_TRUE(third[0].inBranchSlice) << "transitive producer";
    EXPECT_TRUE(third[1].inBranchSlice) << "direct producer";
    EXPECT_TRUE(third[2].inBranchSlice) << "the branch";
}

TEST(SliceUnit, LoadsJoinSlicesThroughTheirAddressChain)
{
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, 2, 1),     // address -> r2
        load(0x1004, 3, 2),    // r3 = mem[r2]
        branch(0x1008, 3, 0),  // branch on loaded value
    };
    decodeAll(unit, body);
    decodeAll(unit, body);
    auto third = decodeAll(unit, body);
    EXPECT_TRUE(third[0].inBranchSlice);
    EXPECT_TRUE(third[1].inBranchSlice);
}

TEST(SliceUnit, NonSliceInstructionStaysOut)
{
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, 3, 4),     // feeds the branch
        alu(0x1004, 10, 11),   // independent computation
        branch(0x1008, 3, 0),
    };
    for (int i = 0; i < 4; ++i)
        decodeAll(unit, body);
    auto last = decodeAll(unit, body);
    EXPECT_TRUE(last[0].inBranchSlice);
    EXPECT_FALSE(last[1].inBranchSlice);
}

TEST(SliceUnit, UnconfidenceFollowsTheConfTab)
{
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, 3, 4),
        branch(0x1004, 3, 0),
    };
    decodeAll(unit, body);
    // Branch mispredicted: counter resets, slice becomes unconfident.
    unit.branchResolved(0x1004, false);
    auto d = decodeAll(unit, body);
    EXPECT_TRUE(d[0].inBranchSlice);
    EXPECT_TRUE(d[0].unconfident);
    EXPECT_TRUE(d[1].unconfident);

    // Long streak of correct predictions: confidence returns.
    for (int i = 0; i < 100; ++i)
        unit.branchResolved(0x1004, true);
    d = decodeAll(unit, body);
    EXPECT_TRUE(d[0].inBranchSlice);
    EXPECT_FALSE(d[0].unconfident);
    EXPECT_FALSE(d[1].unconfident);
}

TEST(SliceUnit, BlindModeTreatsEveryBranchAsUnconfident)
{
    PubsParams params;
    params.useConfTab = false;
    SliceUnit unit(params);
    std::vector<DynInst> body = {
        alu(0x1000, 3, 4),
        branch(0x1004, 3, 0),
    };
    decodeAll(unit, body);
    auto d = decodeAll(unit, body);
    EXPECT_TRUE(d[0].unconfident);
    EXPECT_TRUE(d[1].unconfident);
    EXPECT_DOUBLE_EQ(unit.unconfidentBranchRate(), 1.0);
}

TEST(SliceUnit, RedefinitionLeavesSliceMembershipStale)
{
    // If r3's producer changes to an instruction that never fed a
    // branch, the *new* producer is initially out of the slice (the
    // predictor is PC-indexed and learns over time).
    SliceUnit unit({});
    std::vector<DynInst> pass1 = {
        alu(0x1000, 3, 4),
        branch(0x1008, 3, 0),
    };
    decodeAll(unit, pass1);
    DynInst other = alu(0x2000, 3, 9); // new producer of r3
    SliceDecision d = unit.decode(other);
    EXPECT_FALSE(d.inBranchSlice);
    // But after the branch sees it once, it is linked too.
    unit.decode(branch(0x1008, 3, 0));
    d = unit.decode(other);
    EXPECT_TRUE(d.inBranchSlice);
}

TEST(SliceUnit, StoresNeverJoinSlices)
{
    SliceUnit unit({});
    DynInst st;
    st.pc = 0x1000;
    st.op = Opcode::St;
    st.src1 = 2;
    st.src2 = 3;
    st.effAddr = 0x2000;
    st.memSize = 8;
    for (int i = 0; i < 3; ++i) {
        SliceDecision d = unit.decode(st);
        EXPECT_FALSE(d.inBranchSlice);
        unit.decode(branch(0x1004, 3, 0));
    }
}

TEST(SliceUnit, FpDataflowUsesUnifiedRegisters)
{
    // An fp instruction writing f3 must not alias integer r3.
    SliceUnit unit({});
    DynInst fp;
    fp.pc = 0x1000;
    fp.op = Opcode::Fadd;
    fp.dst = 3; // f3
    fp.src1 = 4;
    fp.src2 = 5;
    unit.decode(fp);
    unit.decode(branch(0x1004, 3, 0)); // reads integer r3
    // Second pass: the fadd must NOT be linked via r3.
    SliceDecision d = unit.decode(fp);
    EXPECT_FALSE(d.inBranchSlice);
}

TEST(SliceUnit, FpProducerJoinsBranchSlice)
{
    // fadd f3 = f4 + f5; fclt r6 = f3 < f7; blt r6, r0. The branch links
    // the fclt through r6, then the fclt links the fadd through f3.
    SliceUnit unit({});
    DynInst fadd = alu(0x1000, 3, 4, 5);
    fadd.op = Opcode::Fadd;
    DynInst fclt = alu(0x1004, 6, 3, 7);
    fclt.op = Opcode::Fclt;
    std::vector<DynInst> body = {fadd, fclt, branch(0x1008, 6, 0)};
    decodeAll(unit, body);
    auto second = decodeAll(unit, body);
    EXPECT_TRUE(second[1].inBranchSlice) << "fp compare";
    EXPECT_FALSE(second[0].inBranchSlice);
    auto third = decodeAll(unit, body);
    EXPECT_TRUE(third[0].inBranchSlice) << "fp producer";
}

TEST(SliceUnit, CountsBranchesAndSliceInstructions)
{
    SliceUnit unit({});
    std::vector<DynInst> body = {
        alu(0x1000, 3, 4),
        branch(0x1004, 3, 0),
    };
    decodeAll(unit, body);
    decodeAll(unit, body);
    EXPECT_EQ(unit.dynamicBranches(), 2u);
    EXPECT_GE(unit.sliceInsts(), 3u); // 2 branches + linked producer
}

} // namespace
} // namespace pubs::pubs
