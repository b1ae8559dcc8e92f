#!/usr/bin/env python3
"""The repository benchmark: two workloads, four end-to-end metrics plus
the error rate, and a traced run that reports per-layer metrics. See
README.md here.

  python3 perfbench/run.py --workload dbp_serial --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --stability [--workload W ...]
  python3 perfbench/run.py --pin

The first form builds the simulator from source into .bench_build (the
first time only), runs the workload's repetitions for --seconds, checks
every simulated result, prints the metrics by name with units, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 it runs the traced measurement instead and the JSON carries the
per-layer metrics. --stability runs two sets of ten seeds per workload
and reports whether the sets agree within BENCHMARK.json's bounds. --pin
rewrites reference.json from runs at the default seed.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "perfbench-out"
TMP_DIR = BUILD_DIR / "tmp"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
WORKERS = 4  # nproc on the host the benchmark was sized for
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
JOBS = min(4, os.cpu_count() or 1)
STABILITY_SEEDS = range(1, 11)  # ten runs per set
STABILITY_SETS = 2

DBP = ["astar_like", "bzip2_like", "gcc_like", "gobmk_like", "mcf_like",
       "omnetpp_like", "perlbench_like", "sjeng_like", "soplex_like",
       "xalancbmk_like"]
EBP = ["bwaves_like", "gromacs_like", "h264ref_like", "hmmer_like",
       "lbm_like", "libquantum_like", "milc_like", "namd_like"]
MACHINES = ["base", "pubs"]

# Every simulation runs the sweep drivers' default budgets (200K warmup
# + 1M measured, as with PUBS_BENCH_WARMUP and PUBS_BENCH_INSTS unset),
# so that each layer carries the share of the work it carries in a
# default sweep. Why each workload exists, and why the two sweeps are
# not workloads, is in README.md.
BUDGETS = {"warmup": 200000, "measure": 1000000}
WORKLOADS = {
    "dbp_serial": dict(BUDGETS, programs=DBP),
    "ebp_serial": dict(BUDGETS, programs=EBP),
}
# The fig8 36-run set that every traced run also passes through the sweep
# harness (--jobs WORKERS) and, in process, through sim::simulateSampled,
# for the bench and sampling layers. The sampled pass places its windows
# as `--sample 2` does in a sweep: budgets split evenly, period = one
# window's warmup + measure.
SWEEP = dict(BUDGETS, programs=DBP + EBP, flags=["--jobs", str(WORKERS)],
             sampled_pass={"windows": 2, "period": 600000})
SAMPLING_LAYER = ("sim.ff_minsts_per_s", "sim.ckpt_bytes",
                  "sim.ckpt_save_mb_per_s", "sim.ckpt_restore_mb_per_s",
                  "sim.store_misses", "sim.store_hits")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchError(Exception):
    """A problem that ends the benchmark without a result."""


# --- statistics ------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def agreement(set_a, set_b, spec):
    """Compare two sets of per-run metric values against the bounds.

    Returns one row per end-to-end metric: its quartiles in each set,
    whether each set's spread is within the bound and whether the second
    median is no worse than the first by more than the bound."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = set_a[name], set_b[name]
        qa, qb = quartiles(a), quartiles(b)
        drift = worse_by(qa[1], qb[1], metric["better"])
        rows.append({"metric": name, "first": qa, "second": qb,
                     "spread_first": spread(a), "spread_second": spread(b),
                     "worse_by": drift,
                     "agree": spread(a) <= bound and spread(b) <= bound and
                     drift <= bound})
    return rows


# --- BENCHMARK.json ----------------------------------------------------------

def validate_spec(spec):
    """Raise BenchError unless `spec` follows the benchmark file contract."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        raise BenchError("BENCHMARK.json keys must be %s" % sorted(keys))
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or not all(
            PATH_RE.match(p) and not p.startswith("/") and
            ".." not in p.split("/") for p in paths):
        raise BenchError("bad paths %r" % paths)
    command = spec["command"]
    if not 1 <= len(command) <= 32 or not all(
            isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
            and ".." not in c.split("/") for c in command):
        raise BenchError("bad command %r" % command)
    if not (isinstance(spec["run_seconds"], int) and
            1 <= spec["run_seconds"] <= 60):
        raise BenchError("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        raise BenchError("2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        raise BenchError("1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        raise BenchError("1 to 128 per-layer metrics")
    seen = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            raise BenchError("bad workload %r" % w)
        _check_name(w["name"], seen)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        want = {"name", "unit", "better"}
        if metric in spec["end_to_end"]:
            want.add("bound")
            if not 0 < metric["bound"] <= 0.25:
                raise BenchError("bound of %s not in (0, 0.25]"
                                 % metric["name"])
        if set(metric) != want:
            raise BenchError("metric %r needs exactly %s"
                             % (metric, sorted(want)))
        _check_name(metric["name"], seen)
        if not UNIT_RE.match(metric["unit"]):
            raise BenchError("bad unit %r" % metric["unit"])
        if metric["better"] not in ("lower", "higher"):
            raise BenchError("better must be lower or higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or \
            setup[0]["better"] != "lower":
        raise BenchError("setup_s (s, lower) is required")


def _check_name(name, seen):
    if not NAME_RE.match(name) or name in seen:
        raise BenchError("bad or repeated name %r" % name)
    seen.add(name)


def load_spec():
    spec = json.loads(SPEC.read_text())
    validate_spec(spec)
    return spec


def result_line(metrics, spec_metrics, attempted, failed):
    """The final JSON line: exactly the named metrics, each with its unit."""
    values = {}
    for metric in spec_metrics:
        value = metrics[metric["name"]]
        values[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": failed == 0 and attempted > 0,
                       "attempted": attempted, "failed": failed,
                       "metrics": values})


# --- building ---------------------------------------------------------------

def build():
    """Configure (once) and build the two binaries the workloads run."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        raise BenchError("no simulator sources next to %s; run from a "
                         "checkout of the repository" % BENCH_DIR.name)
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(JOBS),
                  "--target", "perfbench_driver", "bench_fig8_speedup"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=clean_env({})).returncode != 0:
                tail = log.read_text().splitlines()[-15:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {"driver": BUILD_DIR / "perfbench_driver",
            "fig8": BUILD_DIR / "pubs" / "bench" / "bench_fig8_speedup"}


# --- running a child --------------------------------------------------------

class Child:
    """One finished child process: exit code, output, host costs."""

    def __init__(self, code, stdout, stderr, maxrss_kb):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb


def run_child(cmd, env, out_path):
    """Run `cmd` in its own process group, and kill the group if the child
    outlives CHILD_TIMEOUT_S.

    stdout goes to `out_path`. The peak RSS is the largest of the child
    and every descendant it waited for (Linux folds reaped children into
    the rusage wait4 returns)."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    chunks = []
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT, start_new_session=True)
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stderr, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(deadline - time.perf_counter()):
                    continue
                chunk = os.read(proc.stderr.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        proc.stderr.close()
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, Path(out_path).read_text(errors="replace"),
                 b"".join(chunks).decode(errors="replace"), usage.ru_maxrss)


def clean_env(extra):
    """The inherited environment minus every PUBS_* setting, plus `extra`.
    Temporary files go to the build directory, so that nothing is written
    outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PUBS_")}
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(TMP_DIR)
    env.update(extra)
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- checking results -------------------------------------------------------

def check_runs(observed, expected):
    """Count failed runs. `observed` maps run key -> digest (None for a run
    that threw or never ran); `expected` maps run key -> digest, or is
    None when there is nothing to compare against yet."""
    failed = 0
    for key, digest in observed.items():
        if digest is None:
            failed += 1
        elif expected is not None and expected.get(key) != digest:
            failed += 1
    return failed


def serial_digests(doc):
    return {"%s/%s" % (r["program"], r["machine"]):
            (r["digest"] if r["ok"] else None) for r in doc["runs"]}


def read_csv(path):
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def sweep_rows(csv_dir):
    """Per-run simulated results of a sweep, from simspeed.csv."""
    rows = {}
    for row in read_csv(csv_dir / "simspeed.csv"):
        machine = "pubs" if row["pubs"] == "1" else "base"
        rows["%s/%s" % (row["workload"], machine)] = row
    return rows


def sweep_digests(rows, keys):
    return {key: ("%s:%s" % (rows[key]["instructions"], rows[key]["cycles"])
                  if key in rows else None) for key in keys}


def table_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- workloads --------------------------------------------------------------

def run_keys(workload):
    return ["%s/%s" % (p, m) for m in MACHINES for p in workload["programs"]]


def driver_cmd(bins, workload, seed, extra=()):
    cmd = [str(bins["driver"]), "--programs", ",".join(workload["programs"]),
           "--machines", ",".join(MACHINES), "--seed", str(seed),
           "--warmup", str(workload["warmup"]),
           "--measure", str(workload["measure"])]
    return cmd + list(extra)


def serial_rep(bins, workload, seed, run_dir, expected, trace_path=None):
    """One pass of a serial workload in a fresh driver process."""
    extra = ["--trace", str(trace_path)] if trace_path else []
    child = run_child(driver_cmd(bins, workload, seed, extra),
                      clean_env({}), run_dir / "driver.json")
    keys = run_keys(workload)
    rep = {"attempted": len(keys), "failed": len(keys),
           "peak_rss_mb": child.maxrss_kb / 1024.0, "digests": None}
    if child.code != 0:
        rep["error"] = "driver exited %d: %s" % (child.code,
                                                 child.stderr[-500:])
        return rep
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        rep["error"] = "driver printed no JSON: %s" % child.stdout[-200:]
        return rep
    rep.update(serial_result(doc, keys, expected))
    return rep


def serial_result(doc, keys, expected):
    """A driver document's failed runs and host times. A run fails if it
    threw or is missing, or if its digest is not the expected one."""
    digests = serial_digests(doc)
    per_run = {"%s/%s" % (r["program"], r["machine"]):
               {"wall_s": r["total_s"], "setup_s": r["gen_s"] + r["ctor_s"],
                "measure_s": r["measure_s"],
                "instructions": r["instructions"]}
               for r in doc["runs"] if r["ok"]}
    measure_s = doc["measure_s"]
    return {"doc": doc, "digests": digests, "per_run": per_run,
            "failed": check_runs({k: digests.get(k) for k in keys},
                                 expected),
            "wall_s": doc["wall_s"], "setup_s": doc["setup_s"],
            "kips": doc["instructions"] / measure_s / 1000.0
            if measure_s else 0.0}


def harness_pass(bins, run_dir, reference):
    """The SWEEP set through bench_fig8_speedup, checked against the
    pinned fig8 table and per-run (instructions, cycles)."""
    csv_dir = fresh_dir(run_dir / "csv")
    env = clean_env({"PUBS_BENCH_CSV": str(csv_dir),
                     "PUBS_BENCH_INSTS": str(SWEEP["measure"]),
                     "PUBS_BENCH_WARMUP": str(SWEEP["warmup"])})
    child = run_child([str(bins["fig8"])] + SWEEP["flags"], env,
                      run_dir / "fig8.txt")
    keys = run_keys(SWEEP)
    rep = {"attempted": len(keys), "failed": len(keys), "digests": None,
           "pool": {}}
    if child.code != 0:
        rep["error"] = "fig8 exited %d: %s" % (child.code,
                                               child.stderr[-500:])
        return rep
    digests = sweep_digests(sweep_rows(csv_dir), keys)
    skipped = {"%s/%s" % (r["workload"], r["machine"])
               for r in read_csv(csv_dir / "skipped.csv")}
    observed = {k: (None if k in skipped else d) for k, d in digests.items()}
    failed = check_runs(observed, reference and reference["runs"])
    if reference and table_digest(child.stdout) != reference["table"]:
        failed = len(keys)
    pool = read_csv(csv_dir / "sweep_pool.csv")
    rep.update(digests=digests, failed=failed, table=child.stdout,
               pool=pool[-1] if pool else {})
    return rep


def sampled_pass(bins, run_dir, expected):
    """The SWEEP set through sim::simulateSampled in one traced
    perfbench_driver process on an empty checkpoint store, each run's
    digest checked against `expected`. Spans go to sampled.trace.json in
    `run_dir`."""
    sample = SWEEP["sampled_pass"]
    store = fresh_dir(run_dir / "store")
    keys = run_keys(SWEEP)
    rep = {"attempted": len(keys), "failed": len(keys), "layers": {},
           "digests": None}
    try:
        child = run_child(
            driver_cmd(bins, SWEEP, DEFAULT_SEED, [
                "--windows", str(sample["windows"]),
                "--period", str(sample["period"]), "--store", str(store),
                "--trace", str(run_dir / "sampled.trace.json")]),
            clean_env({}), run_dir / "sampled.json")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if child.code != 0:
        rep["error"] = "driver exited %d: %s" % (child.code,
                                                 child.stderr[-500:])
        return rep
    doc = json.loads(child.stdout)
    digests = serial_digests(doc)
    digests = {k: digests.get(k) for k in keys}
    rep.update(failed=check_runs(digests, expected), layers=doc["layers"],
               digests=digests)
    return rep


def pinned(name, budget):
    """The pinned entry `name` of reference.json if it was pinned at
    `budget`, else None."""
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(name)
    return ref if ref and ref.get("budgets") == budget else None


def budgets(workload):
    keys = ("warmup", "measure", "sampled_pass")
    return {k: workload[k] for k in keys if k in workload}


def reference_for(name, seed):
    """Pinned digests of workload `name`. They exist at the default seed
    only; the sweep driver builds the suite at the default seed whatever
    --seed says, so SWEEP's pins ("fig8") hold at every seed."""
    ref = pinned(name, budgets(WORKLOADS[name]))
    return ref["runs"] if ref and seed == DEFAULT_SEED else None


def measure(bins, name, seed, seconds, run_dir):
    """Repeat the workload's run set for `seconds` and return the
    repetitions: MIN_REPS at least, and after that a repetition starts
    only if one of average length still ends in time."""
    workload = WORKLOADS[name]
    ref = reference_for(name, seed)
    reps = []
    start = time.perf_counter()
    while True:
        # At a non-default seed the first repetition is the reference for
        # the rest.
        expected = ref if ref is not None else (
            reps[0]["digests"] if reps else None)
        reps.append(serial_rep(bins, workload, seed, run_dir, expected))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and \
                elapsed + elapsed / len(reps) > seconds:
            return reps


def envelope(reps, field):
    """Each run's least `field` over the repetitions, summed over runs."""
    least = {}
    for rep in reps:
        for key, run in rep.get("per_run", {}).items():
            if field in run:
                least[key] = min(least.get(key, run[field]), run[field])
    return sum(least.values()), least


def end_to_end(reps, spec):
    """The best the host allowed (see README.md, 'Statistic'): each time
    is summed from every run's fastest repetition; kips divides the
    instructions by the summed fastest measurement times. Peak RSS is the
    median."""
    clean = [r for r in reps if "wall_s" in r]
    if not clean:
        return {m["name"]: 0.0 for m in spec["end_to_end"]}
    metrics = {name: envelope(clean, name)[0]
               for name in ("wall_s", "setup_s")}
    measure, least = envelope(clean, "measure_s")
    instructions = {k: run["instructions"] for rep in clean
                    for k, run in rep["per_run"].items()}
    instructions = sum(instructions[k] for k in least)
    metrics["kips"] = instructions / measure / 1000.0 if measure else 0.0
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    return metrics


# --- provenance -------------------------------------------------------------

def provenance(name, seed, seconds, trace):
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
            if match:
                cache[match.group(1)] = match.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        # The ceiling keeps git from finding a repository above a checkout
        # that is not one.
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
            env=clean_env({"GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        ).stdout.strip()
    except OSError:
        rev = ""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    workload = WORKLOADS[name]
    return {
        "git_rev": rev or "unavailable",
        "source_sha256": source_hash(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "build_flags": {k: cache.get(k, "") for k in (
            "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE", "PUBS_LTO",
            "PUBS_SIMD", "PUBS_MARCH", "PUBS_PGO")},
        "compiler": version,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "budgets": budgets(workload),
        "sweep_budgets": budgets(SWEEP) if trace else None,
        "workers": WORKERS if trace else 1,
        "command": "python3 perfbench/run.py --workload %s --seed %d "
                   "--seconds %d --trace %d" % (name, seed, seconds, trace),
    }


def source_hash():
    """Content hash of everything the build reads, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench", "examples", "ci", "tests", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# --- the end-to-end and traced runs ------------------------------------------

def report_end_to_end(name, seed, seconds, bins, spec):
    run_dir = fresh_dir(OUT_DIR / name)
    reps = measure(bins, name, seed, seconds, run_dir)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = end_to_end(reps, spec)
    prov = provenance(name, seed, seconds, 0)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("workload %s, seed %d: %d repetitions, %d runs, %d failed"
          % (name, seed, len(reps), attempted, failed))
    for rep in reps:
        if "error" in rep:
            print("  repetition failed: %s" % rep["error"])
    for metric in spec["end_to_end"]:
        key = metric["name"]
        values = [r[key] for r in reps if key in r]
        q1, med, q3 = quartiles(values) if values else (0, 0, 0)
        print("%-12s %14.6f %-5s (reps: q1 %.6f, median %.6f, q3 %.6f)"
              % (key, metrics[key], units[key], q1, med, q3))
    print("error_rate   %14.6f      (failed runs / attempted runs)"
          % (failed / attempted))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    (OUT_DIR / ("%s-seed%d.json" % (name, seed))).write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "attempted": attempted,
         "failed": failed, "reps": [{k: v for k, v in r.items()
                                     if k in ("wall_s", "kips", "setup_s",
                                              "peak_rss_mb", "failed")}
                                    for r in reps]}, indent=1))
    print(result_line(metrics, spec["end_to_end"], attempted, failed))


def trace_events(path, pid):
    """The spans of a Chrome trace-event file, moved to process `pid`."""
    if not path.is_file():
        return []
    events = json.loads(path.read_text())["traceEvents"]
    for event in events:
        event["pid"] = pid
    return events


def traced(name, seed, bins, spec):
    """One untraced and one traced repetition of the workload, then the
    SWEEP set through the sweep harness and through sim::simulateSampled."""
    workload = WORKLOADS[name]
    run_dir = fresh_dir(OUT_DIR / (name + "-trace"))
    trace_path = OUT_DIR / ("%s-seed%d.trace.json" % (name, seed))
    spans = []
    origin = time.perf_counter()

    def span(label, fn):
        start = time.perf_counter()
        value = fn()
        spans.append({"name": label, "cat": "run.py", "ph": "X",
                      "ts": (start - origin) * 1e6,
                      "dur": (time.perf_counter() - start) * 1e6,
                      "pid": 0, "tid": 0, "args": {"workload": name}})
        return value

    ref = reference_for(name, seed)
    driver_trace = run_dir / "driver.trace.json"
    untraced = span("serial/untraced", lambda: serial_rep(
        bins, workload, seed, run_dir, ref))
    expected = ref if ref is not None else untraced["digests"]
    tr = span("serial/traced", lambda: serial_rep(
        bins, workload, seed, run_dir, expected, driver_trace))
    sweep_ref = pinned("fig8", budgets(SWEEP))
    harness = span("sweep/harness", lambda: harness_pass(
        bins, run_dir, sweep_ref))
    sampled = span("sweep/sampled", lambda: sampled_pass(
        bins, run_dir, sweep_ref and sweep_ref["sampled"]))
    reps = [untraced, tr, harness, sampled]

    layers = dict(tr["doc"]["layers"]) if "doc" in tr else {}
    layers.update({k: sampled["layers"][k] for k in SAMPLING_LAYER
                   if k in sampled["layers"]})
    pool = harness["pool"]
    busy = float(pool.get("busy_seconds", 0.0))
    sweep_wall = float(pool.get("wall_seconds", 0.0))
    layers.update({
        "bench.busy_s": busy,
        "bench.utilization": float(pool.get("utilization", 0.0)),
        "bench.overhead_s_per_run":
            (sweep_wall * WORKERS - busy) / len(run_keys(SWEEP)),
        "trace.overhead_s": tr.get("wall_s", 0.0) -
            untraced.get("wall_s", 0.0)})

    events = trace_events(driver_trace, 1) + \
        trace_events(run_dir / "sampled.trace.json", 2)
    trace_path.write_text(json.dumps({"traceEvents": spans + events,
                                      "displayTimeUnit": "ms"}))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise BenchError("traced run produced no %s" % ", ".join(missing))
    print("traced workload %s, seed %d: %d runs checked, %d failed; "
          "spans in %s" % (name, seed, attempted, failed,
                           trace_path.relative_to(ROOT)))
    for rep in reps:
        if "error" in rep:
            print("  repetition failed: %s" % rep["error"])
    for metric in spec["per_layer"]:
        print("%-28s %18.6f %s" % (metric["name"], layers[metric["name"]],
                                   metric["unit"]))
    print("provenance: " + json.dumps(provenance(name, seed, 0, 1),
                                      sort_keys=True))
    print(result_line(layers, spec["per_layer"], attempted, failed))


# --- stability and pinning --------------------------------------------------

def stability(names, spec):
    """Run STABILITY_SETS sets of one run per STABILITY_SEEDS seed per
    workload, as separate benchmark invocations, and report whether the
    sets agree within the bounds."""
    seconds = spec["run_seconds"]
    all_agree = True
    for name in names:
        results = []
        for _ in range(STABILITY_SETS):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in STABILITY_SEEDS:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__)), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"], capture_output=True, text=True,
                    cwd=ROOT)
                if proc.returncode != 0:
                    raise BenchError("%s seed %d failed:\n%s"
                                     % (name, seed, proc.stderr[-2000:]))
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                if not last["correct"]:
                    all_agree = False
                    print("%s seed %d: %d of %d runs failed"
                          % (name, seed, last["failed"], last["attempted"]))
                for key in values:
                    values[key].append(last["metrics"][key]["value"])
            results.append(values)
            for key, vals in values.items():
                print("%-14s %-12s set%d q1/med/q3 %s spread %.3f"
                      % (name, key, len(results), fmt(quartiles(vals)),
                         spread(vals)))
            sys.stdout.flush()
        for i in range(1, STABILITY_SETS):
            for row in agreement(results[0], results[i], spec):
                all_agree &= row["agree"]
                print("%-14s %-12s set1 q1/med/q3 %s spread %.3f | set%d "
                      "%s spread %.3f | worse by %+.3f  %s"
                      % (name, row["metric"], fmt(row["first"]),
                         row["spread_first"], i + 1, fmt(row["second"]),
                         row["spread_second"], row["worse_by"],
                         "agree" if row["agree"] else "DISAGREE"))
        sys.stdout.flush()
    print("stability: %s" % ("sets agree" if all_agree else "DISAGREE"))
    return 0 if all_agree else 1


def fmt(q):
    return "/".join("%.4g" % v for v in q)


def pin_digests(name, rep):
    if rep["failed"] or rep["digests"] is None or \
            None in rep["digests"].values():
        raise BenchError("cannot pin %s: a run failed" % name)
    return rep["digests"]


def pin(bins):
    """Record the simulated results at the default seed as the reference:
    each workload's digests, and for SWEEP ("fig8") the harness's fig8
    table and (instructions, cycles) plus the sampled pass's digests."""
    run_dir = fresh_dir(OUT_DIR / "pin")
    reference = {}
    for name, workload in WORKLOADS.items():
        rep = serial_rep(bins, workload, DEFAULT_SEED, run_dir, None)
        reference[name] = {"budgets": budgets(workload),
                           "runs": pin_digests(name, rep)}
    harness = harness_pass(bins, run_dir, None)
    reference["fig8"] = {
        "budgets": budgets(SWEEP), "runs": pin_digests("fig8", harness),
        "table": table_digest(harness["table"]),
        "sampled": pin_digests("fig8", sampled_pass(bins, run_dir, None))}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) +
                         "\n")
    print("wrote %s" % REFERENCE.relative_to(ROOT))


# --- command line -----------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = args.workload or [w["name"] for w in spec["workloads"]]
        for name in names:
            if name not in WORKLOADS:
                raise BenchError("unknown workload %r" % name)
        if args.seed < 0:
            raise BenchError("--seed must not be negative")
        if args.stability:
            return stability(names, spec)
        bins = build()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if args.pin:
            pin(bins)
            return 0
        if len(names) != 1:
            raise BenchError("give exactly one --workload")
        if args.trace:
            traced(names[0], args.seed, bins, spec)
        else:
            report_end_to_end(names[0], args.seed,
                              args.seconds or spec["run_seconds"], bins,
                              spec)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
