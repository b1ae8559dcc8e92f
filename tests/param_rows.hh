/**
 * @file
 * Test helpers that write a machine-parameter row (cpu/params.hh) of
 * any kind. The table's accessors only read, so these cast the const
 * away; the machines they write are the tests' own.
 */

#ifndef PUBS_TESTS_PARAM_ROWS_HH
#define PUBS_TESTS_PARAM_ROWS_HH

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <variant>

#include "cpu/params.hh"

namespace pubs::test
{

/** Set the integer-valued @p row of @p params to @p value. */
inline void
setRow(const cpu::ParamRow &row, cpu::CoreParams &params, uint64_t value)
{
    std::visit(
        [&](auto *field) {
            using T = std::remove_cvref_t<decltype(*field)>;
            if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
                *const_cast<T *>(field) = (T)value;
            else
                ADD_FAILURE() << row.name << " has no integer value";
        },
        row.field(params));
}

/** Change @p row of @p params to some other value. */
inline void
perturb(const cpu::ParamRow &row, cpu::CoreParams &params)
{
    std::visit(
        [](auto *field) {
            using T = std::remove_cvref_t<decltype(*field)>;
            T &value = *const_cast<T *>(field);
            if constexpr (std::is_same_v<T, std::string>)
                value += "x";
            else if constexpr (std::is_same_v<T, double>)
                value += 1.0;
            else
                value = (T)((uint64_t)value ^ 1);
        },
        row.field(params));
}

/** Turn on the switch that @p row's range depends on, if any. */
inline void
enableRow(const cpu::ParamRow &row, cpu::CoreParams &params)
{
    if (row.when)
        *const_cast<bool *>(row.when(params)) = true;
}

} // namespace pubs::test

#endif // PUBS_TESTS_PARAM_ROWS_HH
