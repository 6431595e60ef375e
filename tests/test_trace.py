"""Tracer and exporter behaviour: round trips, no-op guarantees, merge."""

import json

import pytest

from repro.models import get_spec
from repro.network import SymbolicFsm
from repro.perf import EngineStats
from repro.trace import (
    Tracer,
    load_chrome,
    read_jsonl,
    summary,
    to_chrome,
    validate_chrome,
    write_chrome,
    write_jsonl,
    write_trace,
)


def make_sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("outer", cat="phase", label="a"):
        tracer.instant("tick", cat="test", n=1)
        with tracer.span("inner", cat="phase") as span:
            tracer.instant("tick", cat="test", n=2)
            span.add(late=True)
    tracer.instant("lonely", cat="test")
    return tracer


# ----------------------------------------------------------------------
# Core tracer semantics
# ----------------------------------------------------------------------


def test_span_nesting_records_depth_and_duration():
    tracer = make_sample_tracer()
    by_name = {e["name"]: e for e in tracer.events if e["ph"] == "X"}
    assert by_name["outer"]["depth"] == 0
    assert by_name["inner"]["depth"] == 1
    assert by_name["inner"]["dur"] <= by_name["outer"]["dur"]
    assert by_name["inner"]["args"] == {"late": True}
    # Instants record the depth at emit time.
    ticks = [e for e in tracer.events if e["name"] == "tick"]
    assert [e["depth"] for e in ticks] == [1, 2]


def test_disabled_tracer_emits_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("outer", cat="phase"):
        tracer.instant("tick", n=1)
    with tracer.span("again") as span:
        span.add(x=1)
    assert len(tracer) == 0
    assert tracer.events == []


def test_disabled_tracer_span_is_shared_noop():
    tracer = Tracer(enabled=False)
    assert tracer.span("a") is tracer.span("b")


def test_absorb_remaps_tid_lanes():
    parent = Tracer()
    parent.instant("parent-event")
    worker = Tracer()
    worker.instant("worker-event")
    other = Tracer()
    other.instant("other-event")
    worker.absorb(other)  # worker now has lanes 0 and 1
    base = parent.absorb(worker)
    assert base == 1
    tids = {e["name"]: e["tid"] for e in parent.events}
    assert tids["parent-event"] == 0
    assert tids["worker-event"] == 1
    assert tids["other-event"] == 2
    # Absorbing into a disabled tracer still works (multi-hop relay).
    relay = Tracer(enabled=False)
    relay.absorb(parent)
    assert len(relay) == len(parent)


def test_absorb_self_and_empty_are_noops():
    tracer = Tracer()
    tracer.instant("x")
    assert tracer.absorb(tracer) == -1
    assert tracer.absorb(Tracer()) == -1
    assert len(tracer) == 1


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = make_sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    count = write_jsonl(tracer, path)
    assert count == len(tracer)
    assert read_jsonl(path) == tracer.events


def test_chrome_export_is_spec_valid(tmp_path):
    tracer = make_sample_tracer()
    path = str(tmp_path / "trace.json")
    count = write_chrome(tracer, path)
    assert count == len(tracer)
    payload = load_chrome(path)
    assert validate_chrome(payload) == []
    events = payload["traceEvents"]
    assert events[0]["ph"] == "M"  # process_name metadata first
    # Timestamps are normalized to the earliest event and in microseconds.
    times = [e["ts"] for e in events[1:]]
    assert min(times) == 0.0
    spans = [e for e in events if e["ph"] == "X"]
    assert all("dur" in e for e in spans)
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "t" for e in instants)


def test_validate_chrome_flags_bad_events():
    assert validate_chrome({}) == ["traceEvents is missing or not a list"]
    payload = {
        "traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 0},  # no dur
            {"name": "b", "ph": "i", "ts": 0, "pid": 1, "tid": 0},  # no scope
            {"ph": "i", "ts": 0, "pid": 1, "tid": 0, "s": "t"},  # no name
        ]
    }
    problems = validate_chrome(payload)
    assert len(problems) == 3


def test_summary_reconstructs_span_tree():
    text = summary(make_sample_tracer())
    lines = text.splitlines()
    outer_at = next(i for i, l in enumerate(lines) if l.strip().startswith("outer"))
    inner_at = next(i for i, l in enumerate(lines) if l.strip().startswith("inner"))
    assert inner_at > outer_at
    # inner is indented deeper than outer.
    indent = lambda l: len(l) - len(l.lstrip())
    assert indent(lines[inner_at]) > indent(lines[outer_at])
    assert "* tick x1" in text  # one tick per nesting level
    assert "* lonely x1" in text


def test_write_trace_dispatches_on_extension(tmp_path):
    tracer = make_sample_tracer()
    assert write_trace(tracer, str(tmp_path / "t.jsonl")) == "jsonl"
    assert write_trace(tracer, str(tmp_path / "t.txt")) == "summary"
    assert write_trace(tracer, str(tmp_path / "t.json")) == "chrome"
    # The chrome file parses as JSON and validates.
    payload = json.loads((tmp_path / "t.json").read_text())
    assert validate_chrome(payload) == []


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traffic_flat():
    return get_spec("traffic").flat()


def test_engine_pipeline_emits_expected_spans(traffic_flat):
    tracer = Tracer()
    fsm = SymbolicFsm(traffic_flat, tracer=tracer)
    fsm.build_transition()
    fsm.reachable()
    names = {e["name"] for e in tracer.events}
    assert {"encode", "build_tr", "reach"} <= names
    assert "quantify.step" in names
    assert "reach.ring" in names
    # Planning is its own span, closed before the schedule runs.
    (plan,) = [e for e in tracer.events if e["name"] == "quantify.plan"]
    (run,) = [e for e in tracer.events if e["name"] == "quantify"]
    assert plan["args"]["method"] == "greedy"
    assert plan["args"]["conjuncts"] == len(fsm.conjuncts)
    assert plan["args"]["steps"] == len(fsm.quantify_result.steps)
    assert plan["ts"] + plan["dur"] <= run["ts"]
    rings = [e for e in tracer.events if e["name"] == "reach.ring"]
    assert rings, "per-ring instants missing"
    for ring in rings:
        assert ring["args"]["frontier_nodes"] > 0
        assert ring["args"]["reached_states"] >= ring["args"]["frontier_states"]


def test_engine_without_tracer_stays_silent(traffic_flat):
    fsm = SymbolicFsm(traffic_flat)
    fsm.build_transition()
    fsm.reachable()
    assert len(fsm.stats.tracer) == 0


def test_stats_merge_absorbs_worker_events():
    worker = EngineStats()
    worker.tracer = Tracer()
    with worker.phase("reach"):
        worker.tracer.instant("reach.ring", depth=1)
    detached = EngineStats()
    detached.merge(worker)  # relay hop with a disabled tracer
    parent = EngineStats()
    parent.tracer = Tracer()
    parent.merge(detached)
    names = [e["name"] for e in parent.tracer.events]
    assert "reach" in names and "reach.ring" in names
    tids = {e["tid"] for e in parent.tracer.events}
    # Each relay hop shifts the lane; the events end on one shared lane
    # distinct from the parent's own (tid 0).
    assert len(tids) == 1 and 0 not in tids


def test_stats_merge_shared_tracer_does_not_duplicate():
    shared = Tracer()
    a = EngineStats()
    a.tracer = shared
    b = EngineStats()
    b.tracer = shared
    shared.instant("once")
    a.merge(b)
    assert len(shared) == 1
