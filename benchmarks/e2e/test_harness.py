"""Self-tests of the end-to-end benchmark harness.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
import workloads  # noqa: E402

# benchmarks/run.py shares the module name; load this directory's by path.
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _script(recorder: spans.SpanRecorder, clock: FakeClock, steps) -> None:
    """Drive the recorder: ("+name", t) opens at t, ("-", t) closes at t."""
    for op, t in steps:
        clock.now = t
        if op == "-":
            recorder.leave()
        else:
            recorder.enter(op[1:])


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    _script(rec, clock, [
        ("+pass", 0), ("+network.encode", 1), ("+bdd.and", 2), ("-", 5),
        ("-", 6), ("+lc.check", 7), ("+bdd.and", 8), ("-", 9), ("-", 9.5),
        ("-", 10),
    ])
    t = rec.totals
    assert t["pass"].self_s == pytest.approx(10 - 5 - 2.5)
    assert t["network.encode"].self_s == pytest.approx(2)
    assert t["lc.check"].self_s == pytest.approx(1.5)
    assert t["bdd.and"].self_s == pytest.approx(4)
    assert t["bdd.and"].calls == 2
    # Self times partition the root span.
    assert sum(x.self_s for x in t.values()) == pytest.approx(10)


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    # lc.pre inside lc.pre inside lc.pre, with a kernel call at the bottom
    # and a kernel call nested in a kernel call.
    _script(rec, clock, [
        ("+pass", 0), ("+lc.pre", 1), ("+lc.pre", 2), ("+lc.pre", 3),
        ("+bdd.and_exists", 4), ("+bdd.or", 5), ("-", 6), ("-", 7),
        ("-", 8), ("-", 9), ("-", 10), ("-", 12),
    ])
    t = rec.totals
    assert t["lc.pre"].calls == 3
    # Each level covers its own duration minus its child's:
    # (10 - 1) - (9 - 2), (9 - 2) - (8 - 3), (8 - 3) - (7 - 4).
    assert t["lc.pre"].self_s == pytest.approx(2 + 2 + 2)
    # Inclusive time counts the outermost span only.
    assert t["lc.pre"].inclusive == pytest.approx(9)
    assert t["bdd.and_exists"].self_s == pytest.approx(2)
    assert t["bdd.or"].self_s == pytest.approx(1)
    assert t["pass"].self_s == pytest.approx(3)
    assert sum(x.self_s for x in t.values()) == pytest.approx(12)


def test_events_keep_layer_spans_with_parent_and_check():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    clock.now = 0
    rec.enter("pass")
    rec.check = 7
    _script(rec, clock, [("+ctl.check", 1), ("+bdd.and", 2), ("+lc.pre", 3),
                         ("-", 4), ("-", 5), ("-", 6)])
    clock.now = 8
    rec.leave()
    by_name = {e[1]: e for e in rec.events}
    assert set(by_name) == {"pass", "ctl.check", "lc.pre"}  # no kernel events
    # lc.pre's parent is ctl.check: kernel spans are skipped as parents.
    assert by_name["lc.pre"][4] == by_name["ctl.check"][0]
    assert by_name["ctl.check"][4] == by_name["pass"][0]
    assert by_name["lc.pre"][5] == 7
    from repro.trace import to_chrome, validate_chrome

    assert validate_chrome(to_chrome(rec.chrome_events())) == []


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _current(target):
    module, cls, attr, _ = target
    owner = spans._owner(module, cls)
    return owner.__dict__[attr] if cls else getattr(owner, attr)


def test_untraced_code_sees_the_original_functions():
    assert spans.wrapped_targets() == []  # importing installs nothing
    spans.assert_unwrapped()
    originals = [_current(t) for t in spans.TARGETS]
    restore = spans.install(spans.SpanRecorder())
    try:
        assert len(spans.wrapped_targets()) == len(spans.TARGETS)
        assert all(_current(t) is not o for t, o in zip(spans.TARGETS, originals))
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped()
    finally:
        restore()
    assert all(_current(t) is o for t, o in zip(spans.TARGETS, originals))
    spans.assert_unwrapped()


def test_every_span_belongs_to_one_self_time_metric():
    owners = {}
    for metric, names in run.SELF_TIME.items():
        for name in names:
            assert name not in owners, f"{name} in {owners.get(name)} and {metric}"
            owners[name] = metric
    assert {t[3] for t in spans.TARGETS} <= set(owners)


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------


def test_fuzz_seed_mapping_reproduces_run_sweep_cases():
    from repro.oracle import run_sweep
    from repro.oracle.fuzz import case_to_payload

    cases = dict(workloads.setup_fuzz(3))
    assert sorted(cases) == list(range(workloads.FUZZ_CASES))
    sweep = run_sweep(3, seed0=0, shrink=False)
    for report in sweep.reports:
        assert case_to_payload(cases[report.seed]) == case_to_payload(report.case)
    # The operator trial uses run_sweep's rng for the same trial seed.
    from repro.oracle import diff

    assert diff._ops_rng(11).random() == random.Random((11 << 1) | 1).random()


def test_seed_only_permutes_the_fuzz_cases():
    first = [s for s, _ in workloads.setup_fuzz(1)]
    assert first == [s for s, _ in workloads.setup_fuzz(1)]
    assert first != [s for s, _ in workloads.setup_fuzz(2)]
    assert sorted(first) == list(range(workloads.FUZZ_CASES))


# ----------------------------------------------------------------------
# BENCHMARK.json and the printed metrics
# ----------------------------------------------------------------------


def test_metric_names_and_bounds_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names + list(run.SELF_TIME) + list(run.CALLS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fuzz-sweep",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
         "--trace-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["attempted"] == 2 * workloads.FUZZ_CASES
        assert "(valid)" in proc.stdout
        assert "spans outside every layer metric" not in proc.stdout
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["oracle.bddops_s"] > 0 and m["bdd.and_calls"] > 0
    else:
        assert result["attempted"] == workloads.FUZZ_CASES


def test_pass_s_takes_each_step_at_its_fastest():
    passes = [{"segments": [1.0, 5.0, 2.0]}, {"segments": [2.0, 4.0, 3.0]},
              {"segments": [1.5, 6.0, 1.0]}]
    assert run.fastest_pass({"passes": passes}) == pytest.approx(1 + 4 + 1)


def test_a_crash_fails_one_check_and_the_pass_goes_on():
    log = workloads.PassLog()
    with log.guard("design"):
        with log.timed():
            raise ValueError("boom")
    log.verdict(True, "next check")
    assert (log.attempted, log.failed) == (2, 1)
    assert "boom" in log.failures[0] and len(log.segments) == 1


# ----------------------------------------------------------------------
# Comparison against a saved output
# ----------------------------------------------------------------------


def _record(pass_s, exact=None):
    runs = [{"setup_s": 0.5, "pass_s": p, "peak_live_nodes": 100,
             "peak_rss_mib": 80.0} for p in pass_s]
    return {"workloads": {"lc-2mdlc": {"runs": runs,
                                       "exact": exact or {"bdd.lookups.and": 5}}}}


def test_compare_flags_regressions_noise_and_drift():
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["pass_s"]
    saved = _record([10.0, 10.0, 10.0])
    same = run.compare(_record([10.0, 10.0, 10.0]), saved, BENCHMARK)
    assert not any(line.startswith(("REGRESSION", "unresolved", "drift"))
                   for line in same)
    slower = run.compare(_record([10 * (1 + 2 * bound)] * 3), saved, BENCHMARK)
    assert any(line.startswith("REGRESSION") and "pass_s" in line for line in slower)
    noisy = run.compare(_record([5.0, 10.0, 20.0]), saved, BENCHMARK)
    assert any(line.startswith("unresolved") and "pass_s" in line for line in noisy)
    drift = run.compare(_record([10.0] * 3, {"bdd.lookups.and": 6}), saved,
                        BENCHMARK)
    assert any(line.startswith("drift") for line in drift)
