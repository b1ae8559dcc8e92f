"""`python3 ci/checks.py CHECK [ARGS]`: one check of the files a contract
test's run left in the current directory (bench/reference_diff.cmake).
A failing check raises AssertionError; JSON loads strictly."""

import csv
import os
import re
import subprocess
import sys

from strict_json import load, loads

CPI_COMPONENTS = 12


def dashboard_data(path):
    """The data block of the self-contained dashboard at @p path."""
    with open(path) as f:
        html = f.read()
    assert "http://" not in html and "https://" not in html, \
        f"{path} must not fetch anything"
    m = re.search(r'type="application/json">\n(.*?)</script>', html, re.S)
    assert m, f"{path} has no data block"
    return loads(m.group(1))


def leaf_diffs(a, b, path=""):
    """The dotted path of each differing leaf, one-sided key and array
    length of @p a and @p b."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from leaf_diffs(a[key], b[key], sub)
            else:
                yield f"{sub} (only in {'ab'[key in b]})"
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path} (length {len(a)} vs {len(b)})"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from leaf_diffs(x, y, f"{path}.{i}")
    elif type(a) is not type(b) or a != b:
        yield f"{path} ({a!r} vs {b!r})"


QUADRANT = ("conf_correct", "conf_wrong", "unconf_correct", "unconf_wrong")


def check_branch_quadrants(sites):
    """Every branch site (a branch_profile.csv row or a dashboard branch
    object) has the four confidence x outcome counters, and they sum to
    its commits."""
    for site in sites:
        missing = [k for k in QUADRANT if k not in site]
        assert not missing, f"missing {missing}: {site}"
        quad = sum(int(site[k]) for k in QUADRANT)
        assert quad == int(site["commits"]), site


def check_cpi_rows(rows):
    """Every cpi_stack.csv row's components sum to its total cycles."""
    components = [c for c in rows[0]
                  if c not in ("workload", "machine", "total_cycles")]
    assert len(components) == CPI_COMPONENTS, components
    for row in rows:
        total = int(row["total_cycles"])
        assert total == sum(int(row[c]) for c in components), row


def restore(cli):
    """A checkpoint saved by one run of @p cli and restored by another
    runs to the straight-through stats JSON, but for host wall-clock."""
    sjeng = [cli, "--workload", "sjeng_like", "--machine", "pubs"]
    run = sjeng + ["--insts", "100000", "--warmup", "20000"]
    quiet = {"check": True, "stdout": subprocess.DEVNULL}
    subprocess.run(sjeng + ["--skip", "150000",
                            "--save-checkpoint", "sjeng.pubsckpt"], **quiet)
    assert os.path.getsize("sjeng.pubsckpt"), "empty checkpoint"
    subprocess.run(run + ["--skip", "150000",
                          "--stats-json", "straight.json"], **quiet)
    subprocess.run(run + ["--restore-checkpoint", "sjeng.pubsckpt",
                          "--stats-json", "restored.json"], **quiet)
    a, b = load("straight.json"), load("restored.json")
    for doc in (a, b):
        del doc["run"]["sim_seconds"], doc["run"]["kips"]
    paths = list(leaf_diffs(a, b))
    assert not paths, "differs: " + ", ".join(paths)


def store(directory):
    """A checkpoint store is not empty and holds no program image (up to
    16 MB): every artifact is under 1.2 MB, so 2 MiB means the image."""
    files = [os.path.join(directory, f) for f in os.listdir(directory)]
    assert files, f"{directory} is empty"
    big = [f for f in files if os.path.getsize(f) > 2 << 20]
    assert not big, f"over 2 MiB: {big}"


def plane():
    """A faulted --procs fig8 sweep's progress document, trace and
    dashboard: all 36 runs, spans only, and retries in the farm stats."""
    p = load("progress.json")
    assert p["done"] == p["total_runs"] == 36, p
    events = load("trace.json")["traceEvents"]
    assert events, "empty trace"
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    data = dashboard_data("dashboard.html")
    assert len(data["runs"]) == 36
    assert data["farm"]["launches"] >= 36, data["farm"]
    assert data["farm"]["retries"] > 0, \
        "crash injection should have forced retries"


def cpi():
    """A fig8 sweep's --cpi-stack --branch-profile CSVs and dashboard."""
    with open("cpi_stack.csv") as f:
        stacks = list(csv.DictReader(f))
    assert len(stacks) == 36, len(stacks)
    check_cpi_rows(stacks)
    with open("branch_profile.csv") as f:
        branches = list(csv.DictReader(f))
    assert branches, "empty branch profile"
    check_branch_quadrants(branches)
    runs = [r for r in dashboard_data("cpi_dashboard.html")["runs"]
            if "cpi" in r]
    assert len(runs) == 36, len(runs)
    assert all(len(r["cpi"]) == CPI_COMPONENTS for r in runs)
    assert any(r.get("branches") for r in runs)
    check_branch_quadrants(b for r in runs for b in r.get("branches", []))
    for name in ("simspeed.csv", "sweep_pool.csv"):
        assert os.path.getsize(name), f"empty {name}"


def cli():
    """A 200K-instruction pubs_sim_cli run's output, pipeview, stats JSON
    and dashboard."""
    with open("out.txt") as f:
        out = f.read()
    assert "CPI stack" in out and "priority_stall" in out, out
    with open("pipeview.out") as f:
        assert any(line.startswith("O3PipeView:fetch:") for line in f)
    d = load("stats.json")
    for key in ("run", "pipeline", "iq", "mem", "pubs", "branch_profile",
                "heartbeat"):
        assert key in d, f"missing stats group: {key}"
    assert "conf_tab" in d["pubs"] and "telemetry" in d["pubs"]
    assert d["pipeline"]["committed"] == 200000
    assert d["pubs"]["telemetry"]["true_slice_insts"] > 0
    assert d["heartbeat"]["samples"] > 0
    assert d["run"]["kips"] > 0
    assert "telemetry" in dashboard_data("dashboard.html")["stats"]["pubs"]


if __name__ == "__main__":
    checks = {f.__name__: f for f in (restore, store, plane, cpi, cli)}
    checks[sys.argv[1]](*sys.argv[2:])
