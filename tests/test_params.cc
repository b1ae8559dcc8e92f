/**
 * @file
 * The machine-parameter table (cpu/params.hh): its ranges are exactly
 * what validate() and the components' constructors accept, and its
 * classes decide what the machine key covers.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "cpu/params.hh"
#include "cpu/pipeline.hh"
#include "emu/emulator.hh"
#include "param_rows.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace pubs::cpu
{
namespace
{

TEST(ParamTable, RangesMatchValidateAndTheConstructors)
{
    wl::Workload w = wl::makeWorkload("hmmer_like");
    for (const ParamRow &row : paramTable()) {
        const ParamRange &range = row.range;
        if (!range.constrained())
            continue;
        SCOPED_TRACE(row.name);
        // The defaults, with the unit the row sizes built.
        CoreParams base;
        test::enableRow(row, base);

        // Every value outside the range is rejected, naming the row.
        std::vector<uint64_t> outside;
        if (range.min > 0)
            outside.push_back(range.min - 1);
        if (range.max != UINT64_MAX)
            outside.push_back(range.max + 1);
        if (range.powerOfTwo)
            outside.push_back(3);
        for (uint64_t value : outside) {
            CoreParams p = base;
            test::setRow(row, p, value);
            try {
                p.validate();
                ADD_FAILURE() << "validate() accepts " << value;
            } catch (const ConfigError &error) {
                EXPECT_NE(std::string(error.what())
                              .find(std::string(row.name) + "="),
                          std::string::npos)
                    << error.what();
            }
        }

        // Its bounds validate and build a pipeline.
        std::vector<uint64_t> bounds = {range.min};
        if (range.max != UINT64_MAX)
            bounds.push_back(range.max);
        for (uint64_t value : bounds) {
            CoreParams p = base;
            test::setRow(row, p, value);
            emu::Emulator emu(w.program);
            EXPECT_NO_THROW({ Pipeline pipe(p, emu); }) << value;
        }
    }
}

TEST(ParamTable, KeyCoversEveryRowButTheObservationalOnes)
{
    const CoreParams base = sim::makeConfig(sim::Machine::Pubs);
    std::set<std::string> observational;
    for (const ParamRow &row : paramTable()) {
        SCOPED_TRACE(row.name);
        CoreParams changed = base;
        test::perturb(row, changed);
        bool keyed = row.cls != ParamClass::Observational;
        EXPECT_EQ(changed.key() != base.key(), keyed);
        if (!keyed)
            observational.insert(row.name);
    }
    // The checker, the auditor and telemetry change what a journaled
    // row holds; only the heartbeat changes nothing journaled.
    EXPECT_EQ(observational, (std::set<std::string>{"heartbeatInterval",
                                                    "heartbeatToStderr"}));
}

} // namespace
} // namespace pubs::cpu
