#include "common/run_options.hh"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/profiler.hh"

namespace pubs::bench
{

namespace
{

/** Store @p text in @p row's target; @return "" or the complaint. */
std::string
assign(const OptionRow &row, const std::string &name,
       const std::string &text)
{
    switch (row.type) {
      case OptionType::Switch:
        *std::get<bool *>(row.target) = text != "0";
        return "";
      case OptionType::Text:
        *std::get<std::string *>(row.target) = text;
        return "";
      case OptionType::Faults: {
        std::string error;
        if (!proc::parseFaultPlan(
                text, *std::get<proc::FaultPlan *>(row.target), error))
            return name + ": " + error;
        return "";
      }
      case OptionType::Count:
      case OptionType::Number:
        break;
    }
    unsigned *const *narrow = std::get_if<unsigned *>(&row.target);
    uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [last, status] = std::from_chars(text.data(), end, value);
    if (status != std::errc() || last != end ||
        (narrow && value > UINT_MAX) ||
        (row.type == OptionType::Count && value == 0)) {
        return name + " wants a " +
               (row.type == OptionType::Count ? "positive" : "non-negative") +
               " integer, got '" + text + "'";
    }
    if (narrow)
        **narrow = (unsigned)value;
    else
        *std::get<uint64_t *>(row.target) = value;
    return "";
}

} // namespace

sim::SamplePlan
RunOptions::samplePlan() const
{
    sim::SamplePlan plan;
    plan.windows = sampleWindows;
    if (!plan.windows)
        return plan;
    plan.measureInsts = std::max<uint64_t>(1, insts / plan.windows);
    plan.warmupInsts = warmup / plan.windows;
    // Default to contiguous windows: the stitched run then covers the
    // same instruction stream as a straight-through run of the same
    // total budget, which is what EXPERIMENTS.md compares against.
    plan.periodInsts =
        samplePeriod ? samplePeriod : plan.warmupInsts + plan.measureInsts;
    return plan;
}

std::vector<OptionRow>
runOptionRows(RunOptions &o)
{
    using T = OptionType;
    return {
        {"--jobs", "PUBS_BENCH_JOBS", T::Count,
         "parallel in-process runs (default: hardware threads)", &o.jobs},
        {"--procs", "PUBS_BENCH_PROCS", T::Count,
         "fault-isolated worker processes instead of threads; crashed or "
         "hung runs are retried, then skipped",
         &o.procs},
        {"--journal", "PUBS_BENCH_JOURNAL", T::Text,
         "write-ahead journal of completed runs", &o.journal},
        {"--resume", "PUBS_BENCH_RESUME", T::Switch,
         "serve journaled runs of an interrupted sweep", &o.resume},
        {"--trace-events", "PUBS_TRACE_EVENTS", T::Text,
         "host-phase profile as Chrome trace-event JSON", &o.traceEvents},
        {"--report", "PUBS_BENCH_REPORT", T::Text,
         "self-contained HTML dashboard", &o.report},
        {"--progress", "PUBS_PROGRESS", T::Switch,
         "count finished runs on stderr and in progress.json",
         &o.progress},
        {"--cpi-stack", "PUBS_CPI_STACK", T::Switch,
         "top-down CPI stack per run (cpi_stack.csv, dashboard)",
         &o.cpiStack},
        {"--branch-profile", "PUBS_BRANCH_PROFILE", T::Switch,
         "per-static-branch cost profile (branch_profile.csv, "
         "dashboard); forces core telemetry on",
         &o.branchProfile},
        {"--sample", "PUBS_BENCH_SAMPLE", T::Count,
         "sampled simulation with N measurement windows per run; the "
         "budgets are split across them",
         &o.sampleWindows},
        {"--sample-period", "PUBS_BENCH_SAMPLE_PERIOD", T::Count,
         "instructions between window starts (default: contiguous)",
         &o.samplePeriod},
        {"--checkpoint-dir", "PUBS_CHECKPOINT_DIR", T::Text,
         "content-addressed checkpoint cache shared across runs",
         &o.checkpointDir},
        {nullptr, "PUBS_BENCH_INSTS", T::Count,
         "measured instructions per run (default 1000000)", &o.insts},
        {nullptr, "PUBS_BENCH_WARMUP", T::Count,
         "warmup instructions per run (default 200000)", &o.warmup},
        {nullptr, "PUBS_BENCH_CSV", T::Text,
         "directory for CSV tables and sweep telemetry", &o.csvDir},
        {nullptr, "PUBS_PROGRESS_JSON", T::Text,
         "where --progress writes its document (default progress.json)",
         &o.progressJson},
        {nullptr, "PUBS_PROC_TIMEOUT", T::Number,
         "seconds a --procs worker may run before it is killed and "
         "retried; 0 = no limit (default 900)",
         &o.procTimeout},
        {nullptr, "PUBS_PROC_RETRIES", T::Count,
         "attempts per run under --procs, the first included (default 5)",
         &o.procRetries},
        {nullptr, "PUBS_PROC_BACKOFF_MS", T::Number,
         "delay before a --procs retry, doubled per attempt (default 100)",
         &o.procBackoffMs},
        {nullptr, "PUBS_FAULT", T::Faults,
         "inject worker crashes, hangs, corrupt frames or a kill of the "
         "sweep (crash|hang|corrupt[:rate[:seed]], killafter:N)",
         &o.faults},
    };
}

std::string
parseOptionRows(const std::vector<OptionRow> &rows, int argc, char **argv,
                bool &help)
{
    help = false;
    for (const OptionRow &row : rows) {
        const char *value = row.env ? std::getenv(row.env) : nullptr;
        if (value && *value) {
            std::string error =
                assign(row, std::string("$") + row.env, value);
            if (!error.empty())
                return error;
        }
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help") {
            help = true;
            return "";
        }
        auto row = std::find_if(rows.begin(), rows.end(),
                                [&](const OptionRow &r) {
                                    return r.flag && arg == r.flag;
                                });
        if (row == rows.end())
            return "unknown option '" + arg + "'";
        if (row->type == OptionType::Switch) {
            *std::get<bool *>(row->target) = true;
            continue;
        }
        if (i + 1 >= argc)
            return arg + " needs a value";
        std::string error = assign(*row, arg, argv[++i]);
        if (!error.empty())
            return error;
    }
    return "";
}

std::string
optionUsage(const char *argv0, const std::vector<OptionRow> &rows)
{
    std::string out = std::string("usage: ") + argv0 + " [options]\n";
    for (const OptionRow &row : rows) {
        std::string value = row.type == OptionType::Switch   ? ""
                            : row.type == OptionType::Text   ? "VALUE"
                            : row.type == OptionType::Faults ? "SPEC"
                                                             : "N";
        std::string left =
            row.flag ? row.flag + (value.empty() ? "" : " " + value)
                     : "$" + std::string(row.env) + "=" +
                           (value.empty() ? "1" : value);
        left.resize(std::max<size_t>(left.size() + 2, 28), ' ');
        out += "  " + left + row.help;
        if (row.flag && row.env)
            out += std::string(" ($") + row.env + ")";
        out += '\n';
    }
    return out;
}

void
parseRunOptions(int argc, char **argv, RunOptions &options,
                const std::vector<OptionRow> &extraRows,
                const std::function<std::string()> &conflict)
{
    std::vector<OptionRow> rows = extraRows;
    for (const OptionRow &row : runOptionRows(options))
        rows.push_back(row);
    bool help = false;
    std::string error = parseOptionRows(rows, argc, argv, help);
    const bool sampled = options.sampleWindows;
    const std::pair<bool, const char *> unmet[] = {
        {options.resume && options.journal.empty(),
         "--resume needs --journal PATH (or $PUBS_BENCH_JOURNAL)"},
        {options.samplePeriod && !sampled,
         "--sample-period needs --sample N (or $PUBS_BENCH_SAMPLE)"},
        {!options.checkpointDir.empty() && !sampled,
         "--checkpoint-dir needs --sample N (or $PUBS_BENCH_SAMPLE)"},
    };
    for (const auto &[set, complaint] : unmet) {
        if (error.empty() && !help && set)
            error = complaint;
    }
    if (error.empty() && !help && conflict)
        error = conflict();
    std::string usage = optionUsage(argc > 0 ? argv[0] : "pubs", rows);
    if (help) {
        std::fputs(usage.c_str(), stdout);
        std::exit(0);
    }
    if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n%s", error.c_str(), usage.c_str());
        std::exit(2);
    }
    if (!options.traceEvents.empty())
        prof::enable();
}

std::string
unwrittenSweepOutput(const RunOptions &options)
{
    if (!options.report.empty() || !options.csvDir.empty())
        return "";
    const char *flag = options.cpiStack        ? "--cpi-stack"
                       : options.branchProfile ? "--branch-profile"
                                               : nullptr;
    if (!flag)
        return "";
    return std::string(flag) +
           " needs --report PATH or $PUBS_BENCH_CSV: a sweep writes it "
           "nowhere else";
}

RunOptions
parseRunOptions(int argc, char **argv)
{
    RunOptions options;
    parseRunOptions(argc, argv, options, {},
                    [&options] { return unwrittenSweepOutput(options); });
    return options;
}

} // namespace pubs::bench
