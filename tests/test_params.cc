/**
 * @file
 * The machine-parameter table (cpu/params.hh): its ranges are exactly
 * what validate() and the components' constructors accept, its classes
 * decide what the machine key covers, and each rule that relates
 * several fields rejects what it should and nothing next to it.
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

/**
 * One rule of validationErrors() that relates several fields: a machine
 * it rejects, and the nearest machine it accepts.
 */
struct CrossFieldCase
{
    const char *rule;
    const char *field; ///< what the rejection must name
    sim::Machine machine;
    void (*reject)(CoreParams &);
    void (*accept)(CoreParams &); ///< applied to the rejected machine
};

TEST(CoreParamsValidate, EachCrossFieldRuleRejectsOnlyWhatItShould)
{
    const CrossFieldCase cases[] = {
        {"age matrix on a non-random IQ", "ageMatrix", sim::Machine::Base,
         [](CoreParams &p) {
             p.ageMatrix = true;
             p.iqKind = iq::IqKind::Shifting;
         },
         [](CoreParams &p) { p.iqKind = iq::IqKind::Random; }},
        {"distributed IQ of non-random queues", "distributedIq",
         sim::Machine::Base,
         [](CoreParams &p) {
             p.distributedIq = true;
             p.iqKind = iq::IqKind::Circular;
         },
         [](CoreParams &p) { p.iqKind = iq::IqKind::Random; }},
        {"distributed IQ under two entries per queue", "iqEntries",
         sim::Machine::Base,
         [](CoreParams &p) {
             p.distributedIq = true;
             p.iqEntries = 7;
         },
         [](CoreParams &p) { p.iqEntries = 8; }},
        {"distributed priority partition filling its queue",
         "pubs.priorityEntries", sim::Machine::Pubs,
         [](CoreParams &p) {
             p.distributedIq = true;
             p.iqEntries = 8;
             p.pubs.priorityEntries = 4;
         },
         [](CoreParams &p) { p.pubs.priorityEntries = 3; }},
        {"cache size not a multiple of ways x lines",
         "memory.l1d.sizeBytes", sim::Machine::Base,
         [](CoreParams &p) { p.memory.l1d.sizeBytes = 32 * 1024 + 64; },
         [](CoreParams &p) { p.memory.l1d.sizeBytes = 32 * 1024; }},
        {"cache set count not a power of two", "memory.l1d.sizeBytes",
         sim::Machine::Base,
         [](CoreParams &p) {
             p.memory.l1d.sizeBytes = 48 * 1024; // 96 sets of 8 ways
             p.memory.l1d.ways = 8;
         },
         [](CoreParams &p) { p.memory.l1d.ways = 12; }}, // 64 sets
        {"structural audit every 0 cycles", "auditInterval",
         sim::Machine::Base,
         [](CoreParams &p) {
             p.auditPolicy = CheckPolicy::Warn;
             p.auditInterval = 0;
         },
         [](CoreParams &p) { p.auditInterval = 1; }},
    };

    wl::Workload w = wl::makeWorkload("hmmer_like");
    for (const CrossFieldCase &c : cases) {
        SCOPED_TRACE(c.rule);
        CoreParams rejected = sim::makeConfig(c.machine);
        c.reject(rejected);
        // This rule alone fires, and names the field.
        EXPECT_EQ(rejected.validationErrors().size(), 1u);
        try {
            rejected.validate();
            ADD_FAILURE() << "validate() accepts it";
        } catch (const ConfigError &error) {
            EXPECT_NE(std::string(error.what()).find(c.field),
                      std::string::npos)
                << error.what();
        }

        CoreParams accepted = rejected;
        c.accept(accepted);
        EXPECT_NO_THROW(accepted.validate());
        emu::Emulator emu(w.program);
        EXPECT_NO_THROW({ Pipeline pipe(accepted, emu); });
    }
}

} // namespace
} // namespace pubs::cpu
