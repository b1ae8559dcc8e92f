/**
 * @file
 * Function-unit pool (Table I: 2 iALU, 1 iMULT/DIV, 2 Ld/St, 2 FPU).
 * Each unit accepts one instruction per cycle; unpipelined operations
 * (integer and FP divide) occupy their unit for the full latency.
 */

#ifndef PUBS_CPU_FU_POOL_HH
#define PUBS_CPU_FU_POOL_HH

#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace pubs::cpu
{

/** Physical FU groups instructions arbitrate for. */
enum class FuType : uint8_t
{
    IntAlu,    ///< also executes branches
    IntMulDiv,
    LdSt,
    Fpu,

    NumTypes,
};

/** Which FU group executes @p cls. */
FuType fuTypeOf(isa::OpClass cls);

class FuPool
{
  public:
    FuPool(unsigned intAlu, unsigned intMulDiv, unsigned ldSt,
           unsigned fpu);

    /**
     * Try to claim a unit of @p type at cycle @p now.
     * @param busyCycles 1 for pipelined ops; full latency for
     *        unpipelined ops.
     * @return true if a unit was claimed.
     */
    bool acquire(FuType type, Cycle now, unsigned busyCycles);

    /** Would acquire() succeed (without claiming)? */
    bool available(FuType type, Cycle now) const;

    unsigned count(FuType type) const;

  private:
    std::vector<Cycle> &unitsOf(FuType type);
    const std::vector<Cycle> &unitsOf(FuType type) const;

    /** Per unit: first cycle it can accept a new instruction. */
    std::vector<Cycle> intAlu_;
    std::vector<Cycle> intMulDiv_;
    std::vector<Cycle> ldSt_;
    std::vector<Cycle> fpu_;
};

} // namespace pubs::cpu

#endif // PUBS_CPU_FU_POOL_HH
