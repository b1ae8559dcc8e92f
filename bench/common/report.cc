#include "common/report.hh"

#include <cstring>
#include <mutex>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace pubs::bench
{

namespace
{

std::mutex reportMutex;

/**
 * Make a JSON document safe to inline inside a <script> element: the
 * byte sequence "</" (as in a "</script>" inside a string value) would
 * end the script early, and "\/" is a legal JSON escape for '/'.
 */
std::string
scriptSafe(std::string json)
{
    std::string out;
    out.reserve(json.size());
    for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '<' && i + 1 < json.size() && json[i + 1] == '/') {
            out += "<\\/";
            ++i;
        } else {
            out += json[i];
        }
    }
    return out;
}

} // namespace

void
ReportBuilder::setTitle(std::string title)
{
    std::lock_guard<std::mutex> lock(reportMutex);
    title_ = std::move(title);
}

ReportBuilder::Run
ReportBuilder::runRow(const SweepRow &row, const RunOptions &options)
{
    Run run;
    run.workload = row.result.workload;
    run.machine = row.result.machine;
    run.ok = row.ok();
    run.instructions = row.result.instructions;
    run.cycles = row.result.cycles;
    run.ipc = row.result.ipc;
    run.kips = row.result.kips();
    run.branchMpki = row.result.branchMpki;
    run.llcMpki = row.result.llcMpki;
    run.unconfidentRate = row.result.unconfidentBranchRate;
    run.errorKind = row.errorKind;
    if (row.ok() && options.cpiStack) {
        run.hasCpi = true;
        run.cpi = row.result.pipeline.cpi.cycles;
    }
    if (row.ok() && options.branchProfile)
        run.branches = row.result.branchProfile;
    return run;
}

void
ReportBuilder::addSweep(const SweepSpec &spec, const SweepResult &result)
{
    std::lock_guard<std::mutex> lock(reportMutex);
    for (const SweepRow &row : result.rows)
        runs_.push_back(runRow(row, spec.options));
    farm_ += result.farm;
    ++sweeps_;
    jobs_ = result.jobs;
}

void
ReportBuilder::addRun(const Run &run)
{
    std::lock_guard<std::mutex> lock(reportMutex);
    runs_.push_back(run);
}

void
ReportBuilder::setStatsJson(std::string statsJson)
{
    json::Value parsed;
    std::string error;
    if (!json::parse(statsJson, parsed, error)) {
        warn("dropping invalid stats JSON from the dashboard: %s",
             error.c_str());
        return;
    }
    std::lock_guard<std::mutex> lock(reportMutex);
    statsJson_ = std::move(statsJson);
}

std::string
ReportBuilder::dataJson() const
{
    std::lock_guard<std::mutex> lock(reportMutex);
    auto quoted = [](const std::string &s) {
        return '"' + jsonEscape(s) + '"';
    };
    std::ostringstream out;
    out << "{\n\"title\": "
        << quoted(title_.empty() ? "PUBS sweep farm" : title_) << ",\n";
    out << "\"sweeps\": " << sweeps_ << ",\n";
    out << "\"jobs\": " << jobs_ << ",\n";
    out << "\"wall_seconds\": " << jsonNumber(farm_.wallSeconds) << ",\n";
    out << "\"busy_seconds\": " << jsonNumber(farm_.busySeconds) << ",\n";
    out << "\"runs\": [";
    for (size_t i = 0; i < runs_.size(); ++i) {
        const Run &r = runs_[i];
        out << (i ? ",\n " : "\n ") << "{\"workload\": "
            << quoted(r.workload) << ", \"machine\": " << quoted(r.machine)
            << ", \"ok\": " << (r.ok ? "true" : "false")
            << ", \"instructions\": " << r.instructions
            << ", \"cycles\": " << r.cycles
            << ", \"ipc\": " << jsonNumber(r.ipc)
            << ", \"kips\": " << jsonNumber(r.kips)
            << ", \"branch_mpki\": " << jsonNumber(r.branchMpki)
            << ", \"llc_mpki\": " << jsonNumber(r.llcMpki)
            << ", \"unconfident_rate\": " << jsonNumber(r.unconfidentRate)
            << ", \"error_kind\": " << quoted(r.errorKind);
        if (r.hasCpi) {
            out << ", \"cpi\": {";
            for (size_t c = 0; c < cpu::numCpiComponents; ++c) {
                out << (c ? ", " : "") << '"'
                    << cpu::cpiComponentName((cpu::CpiComponent)c)
                    << "\": " << r.cpi[c];
            }
            out << "}";
        }
        if (!r.branches.empty()) {
            out << ", \"branches\": [";
            for (size_t b = 0; b < r.branches.size(); ++b) {
                const auto &[pc, br] = r.branches[b];
                out << (b ? ", " : "") << "{\"pc\": " << pc
                    << ", \"commits\": " << br.commits
                    << ", \"mispredicts\": " << br.mispredicts
                    << ", \"penalty_cycles\": " << br.penaltySum
                    << ", \"unconf_correct\": " << br.unconfidentCorrect
                    << ", \"unconf_wrong\": " << br.unconfidentWrong
                    << ", \"slice_insts\": " << br.sliceInsts
                    << ", \"slice_covered\": " << br.sliceCovered << "}";
            }
            out << "]";
        }
        out << "}";
    }
    out << "\n],\n";
    out << "\"farm\": {\"launches\": " << farm_.launches
        << ", \"crashes\": " << farm_.crashes
        << ", \"timeouts\": " << farm_.timeouts
        << ", \"stale_kills\": " << farm_.staleKills
        << ", \"corrupt_frames\": " << farm_.corruptFrames
        << ", \"retries\": " << farm_.retries
        << ", \"skips\": " << farm_.permanentFailures
        << ", \"journal_served\": " << farm_.journalServed << "}";
    if (!statsJson_.empty()) {
        // Already validated by setStatsJson(); spliced in verbatim.
        std::string stats = statsJson_;
        while (!stats.empty() &&
               (stats.back() == '\n' || stats.back() == ' '))
            stats.pop_back();
        out << ",\n\"stats\": " << stats;
    }
    out << "\n}\n";
    return out.str();
}

std::string
ReportBuilder::html() const
{
    return renderDashboardHtml(dataJson());
}

std::string
ReportBuilder::writeHtml(const std::string &path) const
{
    return atomicWriteFile(path, html());
}

void
ReportBuilder::clear()
{
    std::lock_guard<std::mutex> lock(reportMutex);
    title_.clear();
    runs_.clear();
    farm_ = sim::FarmStats{};
    sweeps_ = 0;
    jobs_ = 0;
    statsJson_.clear();
}

ReportBuilder &
globalReport()
{
    static ReportBuilder *builder = new ReportBuilder;
    return *builder;
}

std::string
renderDashboardHtml(const std::string &dataJson)
{
    // One static page: data inline, styling inline, rendering in plain
    // DOM JS. No external requests, so it works from file:// and in
    // air-gapped CI artifact viewers.
    static const char *prefix = R"HTML(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>PUBS sweep dashboard</title>
<style>
 body { font: 14px/1.45 system-ui, sans-serif; margin: 24px;
        background: #0f1419; color: #d7dde4; }
 h1 { font-size: 20px; margin: 0 0 4px; }
 h2 { font-size: 15px; margin: 28px 0 8px; color: #9ecbff;
      border-bottom: 1px solid #243240; padding-bottom: 4px; }
 .sub { color: #8696a7; margin-bottom: 18px; }
 .cards { display: flex; flex-wrap: wrap; gap: 10px; }
 .card { background: #18202a; border: 1px solid #243240;
         border-radius: 8px; padding: 10px 16px; min-width: 110px; }
 .card .v { font-size: 20px; font-weight: 600; }
 .card .k { font-size: 11px; color: #8696a7; text-transform: uppercase;
            letter-spacing: .05em; }
 .bar-row { display: flex; align-items: center; margin: 3px 0; }
 .bar-label { width: 220px; white-space: nowrap; overflow: hidden;
              text-overflow: ellipsis; font-family: ui-monospace,
              monospace; font-size: 12px; }
 .bar-track { flex: 1; background: #18202a; border-radius: 4px;
              height: 18px; position: relative; }
 .bar-fill { height: 100%; border-radius: 4px; background: #2f81f7; }
 .stack-track { flex: 1; background: #18202a; border-radius: 4px;
                height: 18px; display: flex; overflow: hidden; }
 .stack-seg { height: 100%; }
 .legend { display: flex; flex-wrap: wrap; gap: 10px; margin: 6px 0 10px;
           font-size: 12px; }
 .legend .swatch { display: inline-block; width: 10px; height: 10px;
                   border-radius: 2px; margin-right: 4px; }
 .bar-fill.good { background: #3fb950; }
 .bar-fill.warn { background: #d29922; }
 .bar-fill.bad { background: #f85149; }
 .bar-value { margin-left: 8px; width: 90px; font-family: ui-monospace,
              monospace; font-size: 12px; color: #9ecbff; }
 table { border-collapse: collapse; font-size: 13px; }
 td, th { padding: 4px 12px; border-bottom: 1px solid #243240;
          text-align: right; }
 th { color: #8696a7; font-weight: 500; }
 td:first-child, th:first-child { text-align: left; }
 .fail { color: #f85149; }
 .empty { color: #8696a7; font-style: italic; }
</style>
</head>
<body>
<div id="app"></div>
<script id="data" type="application/json">
)HTML";

    static const char *suffix = R"HTML(</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("data").textContent);
const app = document.getElementById("app");

function el(tag, cls, text) {
  const node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
}

function section(title) {
  app.appendChild(el("h2", "", title));
  const box = el("div");
  app.appendChild(box);
  return box;
}

function bar(box, label, value, max, text, cls) {
  const row = el("div", "bar-row");
  row.appendChild(el("div", "bar-label", label));
  const track = el("div", "bar-track");
  const fill = el("div", "bar-fill" + (cls ? " " + cls : ""));
  const pct = max > 0 ? Math.max(0, Math.min(100, 100 * value / max)) : 0;
  fill.style.width = pct + "%";
  track.appendChild(fill);
  row.appendChild(track);
  row.appendChild(el("div", "bar-value", text));
  box.appendChild(row);
}

function card(box, key, value, cls) {
  const c = el("div", "card");
  c.appendChild(el("div", "v" + (cls ? " " + cls : ""), value));
  c.appendChild(el("div", "k", key));
  box.appendChild(c);
}

function geomean(values) {
  if (!values.length) return 0;
  let log = 0;
  for (const v of values) log += Math.log(v);
  return Math.exp(log / values.length);
}

// --- header + summary cards ---
app.appendChild(el("h1", "", DATA.title));
const ok = DATA.runs.filter(r => r.ok);
const failed = DATA.runs.filter(r => !r.ok);
app.appendChild(el("div", "sub",
  DATA.runs.length + " runs, " + DATA.sweeps + " sweeps, " +
  DATA.jobs + " workers"));
const cards = el("div", "cards");
app.appendChild(cards);
card(cards, "runs ok", String(ok.length));
card(cards, "runs failed", String(failed.length),
     failed.length ? "fail" : "");
card(cards, "geomean KIPS",
     geomean(ok.map(r => r.kips).filter(k => k > 0)).toFixed(0));
card(cards, "wall seconds", DATA.wall_seconds.toFixed(1));
if (DATA.wall_seconds > 0 && DATA.jobs > 0)
  card(cards, "utilization", (100 * DATA.busy_seconds /
       (DATA.wall_seconds * DATA.jobs)).toFixed(0) + "%");

// --- per-workload KIPS bars ---
{
  const box = section("Host speed (KIPS per run)");
  const withSpeed = ok.filter(r => r.kips > 0);
  if (!withSpeed.length) {
    box.appendChild(el("div", "empty", "no host-speed data"));
  } else {
    const max = Math.max(...withSpeed.map(r => r.kips));
    for (const r of withSpeed)
      bar(box, r.workload + " / " + r.machine, r.kips, max,
          r.kips.toFixed(0) + " KIPS");
  }
}

// --- base-vs-pubs IPC speedup ---
{
  const box = section("IPC speedup vs baseline");
  const byWorkload = new Map();
  for (const r of ok) {
    if (!byWorkload.has(r.workload)) byWorkload.set(r.workload, []);
    byWorkload.get(r.workload).push(r);
  }
  const rows = [];
  for (const [workload, runs] of byWorkload) {
    if (runs.length < 2) continue;
    let base = runs.find(r => /base/i.test(r.machine)) || runs[0];
    if (base.ipc <= 0) continue;
    for (const r of runs) {
      if (r === base) continue;
      rows.push({ label: workload + ": " + r.machine + " / " +
                  base.machine, speedup: r.ipc / base.ipc });
    }
  }
  if (!rows.length) {
    box.appendChild(el("div", "empty",
      "needs at least two machines per workload"));
  } else {
    const max = Math.max(1.0, ...rows.map(r => r.speedup));
    for (const r of rows) {
      const pct = (100 * (r.speedup - 1)).toFixed(1);
      bar(box, r.label, r.speedup, max,
          r.speedup.toFixed(3) + " (" + (pct >= 0 ? "+" : "") + pct +
          "%)", r.speedup >= 1 ? "good" : "bad");
    }
  }
}

// --- top-down CPI stacks ---
{
  const withCpi = ok.filter(r => r.cpi);
  if (withCpi.length) {
    const box = section("Top-down CPI stack (fraction of cycles)");
    const COLORS = {
      base: "#3fb950", frontend: "#9ecbff", branch_recovery: "#f85149",
      branch_misspec: "#d29922", mem_l2: "#a371f7", mem_dram: "#6e40c9",
      rob_full: "#f0883e", iq_full: "#db6d28", lsq_full: "#bf4b8a",
      rename_full: "#768390", priority_stall: "#e3b341",
      execute: "#2f81f7"
    };
    const names = Object.keys(withCpi[0].cpi);
    const legend = el("div", "legend");
    for (const name of names) {
      const item = el("span");
      const swatch = el("span", "swatch");
      swatch.style.background = COLORS[name] || "#768390";
      item.appendChild(swatch);
      item.appendChild(document.createTextNode(name));
      legend.appendChild(item);
    }
    box.appendChild(legend);
    for (const r of withCpi) {
      const total = names.reduce((sum, n) => sum + r.cpi[n], 0);
      if (!total) continue;
      const row = el("div", "bar-row");
      row.appendChild(el("div", "bar-label",
                         r.workload + " / " + r.machine));
      const track = el("div", "stack-track");
      for (const name of names) {
        if (!r.cpi[name]) continue;
        const seg = el("div", "stack-seg");
        seg.style.width = (100 * r.cpi[name] / total) + "%";
        seg.style.background = COLORS[name] || "#768390";
        seg.title = name + ": " +
                    (100 * r.cpi[name] / total).toFixed(1) + "%";
        track.appendChild(seg);
      }
      row.appendChild(track);
      row.appendChild(el("div", "bar-value",
                         (total / (r.instructions || 1)).toFixed(3) +
                         " CPI"));
      box.appendChild(row);
    }
  }
}

// --- top branch sites ---
{
  const rows = [];
  for (const r of ok) {
    for (const b of (r.branches || []))
      rows.push({ run: r, b: b });
  }
  if (rows.length) {
    const box = section("Top branch sites by misprediction cost");
    rows.sort((x, y) => y.b.mispredicts - x.b.mispredicts ||
                        y.b.penalty_cycles - x.b.penalty_cycles ||
                        x.b.pc - y.b.pc);
    const table = el("table");
    const head = el("tr");
    for (const key of ["run", "pc", "commits", "mispredicts",
                       "penalty cycles", "unconf %", "slice cov"])
      head.appendChild(el("th", "", key));
    table.appendChild(head);
    for (const { run, b } of rows.slice(0, 15)) {
      const tr = el("tr");
      tr.appendChild(el("td", "", run.workload + " / " + run.machine));
      tr.appendChild(el("td", "", "0x" + b.pc.toString(16)));
      tr.appendChild(el("td", "", String(b.commits)));
      tr.appendChild(el("td", "", String(b.mispredicts)));
      tr.appendChild(el("td", "", String(b.penalty_cycles)));
      const unconf = b.unconf_correct + b.unconf_wrong;
      tr.appendChild(el("td", "", b.commits ?
        (100 * unconf / b.commits).toFixed(1) + "%" : "-"));
      tr.appendChild(el("td", "", b.slice_insts ?
        (b.slice_covered / b.slice_insts).toFixed(2) : "-"));
      table.appendChild(tr);
    }
    box.appendChild(table);
  }
}

// --- slice telemetry ---
{
  const box = section("Slice telemetry");
  const tel = DATA.stats && DATA.stats.pubs && DATA.stats.pubs.telemetry;
  if (tel && typeof tel.slice_coverage === "number") {
    bar(box, "true-slice coverage", tel.slice_coverage, 1,
        (100 * tel.slice_coverage).toFixed(1) + "%", "good");
    bar(box, "slice accuracy", tel.slice_accuracy || 0, 1,
        (100 * (tel.slice_accuracy || 0)).toFixed(1) + "%", "good");
  } else {
    const withRate = ok.filter(r => r.unconfident_rate > 0);
    if (!withRate.length) {
      box.appendChild(el("div", "empty", "no slice telemetry recorded"));
    } else {
      for (const r of withRate)
        bar(box, r.workload + " / " + r.machine + " unconfident rate",
            r.unconfident_rate, 1,
            (100 * r.unconfident_rate).toFixed(1) + "%", "warn");
    }
  }
}

// --- farm health ---
{
  const box = section("Farm health");
  const farm = DATA.farm;
  const table = el("table");
  const head = el("tr");
  const body = el("tr");
  for (const [key, cls] of [["launches", ""], ["crashes", "fail"],
       ["timeouts", "fail"], ["stale_kills", "fail"],
       ["corrupt_frames", "fail"], ["retries", ""], ["skips", "fail"],
       ["journal_served", ""]]) {
    head.appendChild(el("th", "", key.replace("_", " ")));
    body.appendChild(el("td", farm[key] > 0 ? cls : "",
                        String(farm[key])));
  }
  table.appendChild(head);
  table.appendChild(body);
  box.appendChild(table);
}

// --- failures ---
if (failed.length) {
  const box = section("Failed runs");
  const table = el("table");
  const head = el("tr");
  for (const key of ["workload", "machine", "error kind"])
    head.appendChild(el("th", "", key));
  table.appendChild(head);
  for (const r of failed) {
    const row = el("tr");
    row.appendChild(el("td", "", r.workload));
    row.appendChild(el("td", "", r.machine));
    row.appendChild(el("td", "fail", r.error_kind));
    table.appendChild(row);
  }
  box.appendChild(table);
}
</script>
</body>
</html>
)HTML";

    std::string out;
    std::string data = scriptSafe(dataJson);
    out.reserve(std::strlen(prefix) + data.size() + std::strlen(suffix));
    out += prefix;
    out += data;
    out += suffix;
    return out;
}

} // namespace pubs::bench
