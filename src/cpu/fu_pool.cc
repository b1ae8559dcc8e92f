#include "cpu/fu_pool.hh"

#include "common/logging.hh"

namespace pubs::cpu
{

FuType
fuTypeOf(isa::OpClass cls)
{
    using enum isa::OpClass;
    switch (cls) {
      case IntAlu:
      case Branch:
      case Nop:
        return FuType::IntAlu;
      case IntMul:
      case IntDiv:
        return FuType::IntMulDiv;
      case Load:
      case Store:
        return FuType::LdSt;
      case FpAlu:
      case FpMul:
      case FpDiv:
        return FuType::Fpu;
      default:
        panic("no FU mapping for op class %d", (int)cls);
    }
}

FuPool::FuPool(unsigned intAlu, unsigned intMulDiv, unsigned ldSt,
               unsigned fpu)
    : intAlu_(intAlu, 0), intMulDiv_(intMulDiv, 0), ldSt_(ldSt, 0),
      fpu_(fpu, 0)
{
    fatal_if(intAlu == 0 || intMulDiv == 0 || ldSt == 0 || fpu == 0,
             "every FU group needs at least one unit");
}

std::vector<Cycle> &
FuPool::unitsOf(FuType type)
{
    switch (type) {
      case FuType::IntAlu: return intAlu_;
      case FuType::IntMulDiv: return intMulDiv_;
      case FuType::LdSt: return ldSt_;
      case FuType::Fpu: return fpu_;
      default: panic("bad FU type %d", (int)type);
    }
}

const std::vector<Cycle> &
FuPool::unitsOf(FuType type) const
{
    return const_cast<FuPool *>(this)->unitsOf(type);
}

bool
FuPool::acquire(FuType type, Cycle now, unsigned busyCycles)
{
    panic_if(busyCycles == 0, "FU occupancy must be at least one cycle");
    for (Cycle &freeAt : unitsOf(type)) {
        if (freeAt <= now) {
            freeAt = now + busyCycles;
            return true;
        }
    }
    return false;
}

bool
FuPool::available(FuType type, Cycle now) const
{
    for (Cycle freeAt : unitsOf(type))
        if (freeAt <= now)
            return true;
    return false;
}

unsigned
FuPool::count(FuType type) const
{
    return (unsigned)unitsOf(type).size();
}

} // namespace pubs::cpu
