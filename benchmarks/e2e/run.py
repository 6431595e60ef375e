"""End-to-end Table-1 benchmark with per-layer self-times.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR]
        [--runs N] [--out FILE] [--against FILE]

Each workload runs in its own fresh, single-threaded worker process
(worker.py), one after another.  Without ``--seconds`` a workload runs
its fixed number of passes; with it, passes repeat until the budget is
used.  ``--trace 0`` prints the end-to-end metrics, measured with no
timing wrappers installed.  ``--trace 1`` prints the per-layer metrics:
it runs the workload once untraced and once in a second process with
wrappers on each layer's public functions, writes a Chrome trace per
workload to ``--trace-dir`` and prints a self-time table.

``--runs N`` repeats every workload N times and reports medians; ``--out``
saves the runs and ``--against`` compares them with a saved file, using
the bounds in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metrics, their
units and bounds are listed in BENCHMARK.json; the README explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import KERNEL, ROOT as ROOT_SPAN, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"

# Workload order; workloads.py holds their inputs, passes and checks.
WORKLOAD_NAMES = ("table1-light", "lc-2mdlc", "fairmc-2mdlc", "fuzz-sweep")

#: Set-up is timed this many times per run (in as many processes).
SETUP_PROBES = 5

#: A timed run still going this long after its budget is killed.
WORKER_GRACE_S = 120.0

#: The wrapped kernel operators' span names.
KERNEL_SPANS = [t[3] for t in TARGETS if t[3].startswith(KERNEL)]

#: Self-time metrics: the spans whose self time each one sums.  Every
#: span the traced run records belongs to exactly one of them, so the
#: metrics and ``trace.unattributed_s`` add up to the traced pass.
SELF_TIME = {
    "verilog.compile_s": ["verilog.compile"],
    "pif.parse_s": ["pif.parse"],
    "pif.bind_s": ["pif.bind"],
    "blifmv.flatten_s": ["blifmv.flatten"],
    "network.encode_s": ["network.encode"],
    "network.build_tr_s": ["network.build_tr"],
    "network.reach_s": ["network.reach"],
    "network.count_s": ["network.count"],
    "ctl.prepare_s": ["ctl.prepare"],
    "ctl.check_s": ["ctl.check"],
    "lc.check_s": ["lc.check"],
    "lc.fair_hull_s": ["lc.fair_hull"],
    "lc.scc_search_s": ["lc.find_fair_scc", "lc.pick_state"],
    "lc.all_fair_states_s": ["lc.all_fair_states"],
    "lc.closure_s": ["lc.forward_within", "lc.backward_within",
                     "lc.invariant_core"],
    "lc.image_s": ["lc.pre", "lc.post"],
    **{f"{span}_s": [span] for span in KERNEL_SPANS},
    **{f"oracle.{p}_s": [f"oracle.{p}"]
       for p in ("bddops", "explicit", "reach", "mc", "lc")},
}

#: Call-count metrics: the spans whose calls each one counts.
CALLS = {
    "network.encode_calls": ["network.encode"],
    "ctl.checks": ["ctl.check"],
    "lc.scc_seeds": ["lc.pick_state"],
    "lc.closure_calls": SELF_TIME["lc.closure_s"],
    "lc.image_calls": SELF_TIME["lc.image_s"],
    **{f"{span}_calls": [span] for span in KERNEL_SPANS},
}

#: Operators whose computed-cache hit rate is reported.
HIT_RATE_OPS = ("and", "andex", "rename")

#: Shares printed under each self-time table (name, inclusive?).
SHARES = (
    ("network.encode", False),
    ("lc.find_fair_scc", True),
    ("lc.all_fair_states", True),
)


class HarnessError(Exception):
    """The benchmark itself could not run (no result is printed)."""


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------


def spawn(workload: str, mode: str, seed: int, seconds: Optional[float] = None,
          trace_file: Optional[str] = None, deadline: Optional[float] = None):
    """Run one worker; returns (set-up seconds, parsed result or None).

    Without ``seconds`` the worker runs the workload's fixed passes.  A
    worker still running at ``deadline`` (a ``perf_counter`` time) is
    killed."""
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(seed),
           "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    # One thread per process; a fixed hash seed makes the kernel's
    # counters repeat exactly from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = None
    if deadline is not None:
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if watchdog is not None:
            watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise HarnessError(f"{workload} {mode} worker exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def measure(workload: str, args) -> dict:
    """One run of one workload: untraced, plus traced with ``--trace 1``."""
    deadline = None
    if args.seconds is not None:
        deadline = time.perf_counter() + args.seconds + WORKER_GRACE_S
    if args.trace:
        budget = None if args.seconds is None else args.seconds / 2
        _, untraced = spawn(workload, "untraced", args.seed, budget,
                            deadline=deadline)
        trace_file = str(Path(args.trace_dir).resolve() / f"{workload}.json")
        _, traced = spawn(workload, "traced", args.seed, budget, trace_file,
                          deadline)
        return {"untraced": untraced, "traced": traced, "setup": []}
    setups = [spawn(workload, "setup", args.seed, deadline=deadline)[0]
              for _ in range(SETUP_PROBES - 1)]
    setup_s, untraced = spawn(workload, "untraced", args.seed, args.seconds,
                              deadline=deadline)
    return {"untraced": untraced, "traced": None, "setup": setups + [setup_s]}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_seconds(result: dict) -> List[float]:
    return [p["seconds"] for p in result["passes"]]


def fastest_pass(result: dict) -> float:
    """A pass with every timed segment at its fastest in the run.

    Interference from other tenants of the host only ever adds time, and
    it comes in episodes of seconds to tens of seconds, longer than a
    check.  The median pass of a run moves with the episodes that fell
    in it; each segment's minimum over the passes does not, as long as
    some pass ran that segment undisturbed.
    """
    # A crashed check ends its block early; zip keeps the steps every
    # pass timed (the crash is already a failed check).
    segments = [p["segments"] for p in result["passes"]]
    return sum(min(times) for times in zip(*segments))


def exact_counters(result: dict) -> Dict[str, int]:
    """The per-pass kernel counters (identical in every pass)."""
    counters = dict(result["passes"][-1]["counters"])
    counters["peak_live_nodes"] = result["passes"][-1]["peak_live_nodes"]
    return counters


def end_to_end(run: dict) -> Dict[str, float]:
    untraced = run["untraced"]
    return {
        "setup_s": _median(run["setup"]),
        "pass_s": fastest_pass(untraced),
        "peak_live_nodes": max(p["peak_live_nodes"] for p in untraced["passes"]),
        "peak_rss_mib": untraced["rss_mib"],
    }


def _hit_rate(counters: Dict[str, int], op: str) -> float:
    lookups = counters.get(f"bdd.lookups.{op}", 0)
    return counters.get(f"bdd.hits.{op}", 0) / lookups if lookups else 0.0


def per_layer(run: dict) -> Dict[str, float]:
    traced, untraced = run["traced"], run["untraced"]
    passes = traced["passes"]

    def med(fn, pick=_median):
        return pick([fn(p) for p in passes])

    def self_s(p, names):
        return sum(p["spans"].get(n, [0.0])[0] for n in names)

    def calls(p, names):
        return sum(p["spans"].get(n, [0, 0])[1] for n in names)

    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = med(lambda p: self_s(p, names))
    # Counts repeat from pass to pass; median_low keeps them whole numbers.
    for metric, names in CALLS.items():
        out[metric] = med(lambda p: calls(p, names), statistics.median_low)
    out["network.reach_iters"] = med(
        lambda p: p["counts"].get("network.reach_iters", 0), statistics.median_low)
    counters = exact_counters(traced)
    for name, value in counters.items():
        if name.startswith("bdd.lookups."):
            out[name] = value
    for op in HIT_RATE_OPS:
        out[f"bdd.hit_rate.{op}"] = _hit_rate(counters, op)
    for name in ("bdd.cache_evictions", "bdd.allocated_nodes", "bdd.gc_runs"):
        out[name] = counters.get(name, 0)
    out["trace.overhead_s"] = fastest_pass(traced) - fastest_pass(untraced)
    out["trace.unattributed_s"] = med(lambda p: self_s(p, [ROOT_SPAN]))
    return out


def self_time_table(workload: str, traced: dict) -> List[str]:
    """Median self time per span over the traced passes, largest first."""
    passes = traced["passes"]
    names = sorted({n for p in passes for n in p["spans"]})
    total = _median([p["spans"][ROOT_SPAN][2] for p in passes])
    rows = []
    for name in names:
        own = _median([p["spans"].get(name, [0.0])[0] for p in passes])
        calls = _median([p["spans"].get(name, [0, 0])[1] for p in passes])
        incl = _median([p["spans"].get(name, [0, 0, 0.0])[2] for p in passes])
        rows.append((own, name, calls, incl))
    lines = [f"[{workload}] self time per span, traced pass {total:.3f} s "
             f"(median of {len(passes)})",
             f"  {'span':<22}{'self s':>10}{'share':>8}{'calls':>10}{'incl s':>10}"]
    for own, name, calls, incl in sorted(rows, reverse=True):
        lines.append(f"  {name:<22}{own:>10.4f}{own / total:>8.1%}"
                     f"{calls:>10.0f}{incl:>10.4f}")
    unattributed = _median([p["spans"][ROOT_SPAN][0] for p in passes])
    lines.append(f"  attributed to layer spans: {1 - unattributed / total:.1%}")
    for name, inclusive in SHARES:
        value = _median([p["spans"].get(name, [0.0, 0, 0.0])[2 if inclusive else 0]
                         for p in passes])
        if value:
            kind = "with children" if inclusive else "self"
            lines.append(f"  {name} ({kind}): {value / total:.1%} of the pass")
    known = {n for names in SELF_TIME.values() for n in names} | {ROOT_SPAN}
    stray = [n for n in names if n not in known]
    if stray:
        lines.append(f"  spans outside every layer metric: {stray}")
    if traced.get("trace_problems"):
        lines.append(f"  trace file problems: {traced['trace_problems'][:3]}")
    elif traced.get("trace_file"):
        lines.append(f"  chrome trace: {traced['trace_file']} (valid)")
    return lines


# ----------------------------------------------------------------------
# Comparison against a saved output
# ----------------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def compare(current: dict, saved: dict, spec: dict) -> List[str]:
    """Each end-to-end median against the saved one; returns report lines
    (a line starting with ``REGRESSION`` fails the comparison)."""
    lines = []
    for workload, mine in current["workloads"].items():
        theirs = saved["workloads"].get(workload)
        if theirs is None:
            lines.append(f"{workload}: not in the saved file")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            now = [r[name] for r in mine["runs"]]
            then = [r[name] for r in theirs["runs"]]
            a, b = statistics.median(then), statistics.median(now)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            noise = max(spread(now), spread(then))
            better_every = (max(now) < min(then) if metric["better"] == "lower"
                            else min(now) > max(then))
            if noise > bound and not better_every:
                status = "unresolved"
            elif worse > bound:
                status = "REGRESSION"
            else:
                status = "ok"
            change = ("unchanged" if worse == 0 else f"{worse:.1%} worse"
                      if worse > 0 else f"{-worse:.1%} better")
            lines.append(f"{status:<10} {workload:<13} {name:<16} {a:.6g} -> "
                         f"{b:.6g} ({change}; bound {bound:.0%}, "
                         f"spread {noise:.1%})")
        drift = sorted(k for k in set(mine["exact"]) | set(theirs["exact"])
                       if mine["exact"].get(k) != theirs["exact"].get(k))
        for key in drift:
            lines.append(f"drift      {workload:<13} {key}: "
                         f"{theirs['exact'].get(key)} -> {mine['exact'].get(key)}")
        if not drift:
            lines.append(f"exact      {workload:<13} all "
                         f"{len(mine['exact'])} counters identical")
    return lines


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:,}" if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all four, in order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: fixed passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=str(HERE / "out" / "traces"))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="save the runs as JSON")
    parser.add_argument("--against", help="compare with a saved --out file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.against and args.trace:
        parser.error("--against compares untraced runs; drop --trace 1")
    saved = json.loads(Path(args.against).read_text()) if args.against else None
    if saved is not None and saved.get("trace"):
        parser.error(f"{args.against} holds traced runs")
    names = args.workload or list(WORKLOAD_NAMES)

    record = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs,
              "trace": args.trace,
              "platform": {"python": platform.python_version(),
                           "machine": platform.machine(),
                           "cpus": os.cpu_count()},
              "workloads": {}}
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in names:
        runs = []
        for _ in range(args.runs):
            try:
                runs.append(measure(workload, args))
            except HarnessError as exc:
                print(f"run.py: {exc}", file=sys.stderr)
                return 2
        for run in runs:
            for part in (run["untraced"], run["traced"]):
                for p in (part or {}).get("passes", []):
                    attempted += p["attempted"]
                    failed += p["failed"]
                    for what in p["failures"]:
                        print(f"FAILED [{workload}] {what}")
        if args.trace:
            values = [per_layer(run) for run in runs]
            for line in self_time_table(workload, runs[-1]["traced"]):
                print(line)
        else:
            values = [end_to_end(run) for run in runs]
            passes = [s for run in runs for s in pass_seconds(run["untraced"])]
            if len(passes) >= 2:
                q1, med, q3 = statistics.quantiles(passes, n=4)
                print(f"[{workload}] whole passes: median {med:.4f} s, "
                      f"quartiles {q1:.4f} .. {q3:.4f} s, {len(passes)} passes")
        if set(values[0]) != set(wanted):
            print(f"run.py: metrics {sorted(set(values[0]) ^ set(wanted))} "
                  f"differ from BENCHMARK.json", file=sys.stderr)
            return 2
        exact = exact_counters(runs[0]["untraced"])
        if any(p["counters"] != runs[0]["untraced"]["passes"][-1]["counters"]
               for run in runs for p in run["untraced"]["passes"]):
            print(f"[{workload}] exact counters differ between passes")
        record["workloads"][workload] = {"runs": values, "exact": exact}
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, unit in wanted.items():
            value = statistics.median(v[name] for v in values)
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"[{workload}] {name} = {_fmt(value)} {unit}")

    status = 0
    if saved is not None:
        for line in compare(record, saved, spec):
            print(line)
            if line.startswith("REGRESSION"):
                status = 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"checks: {failed} of {attempted} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
