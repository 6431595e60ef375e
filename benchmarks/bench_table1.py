"""Table 1 reproduction: the six designs through the full HSIS pipeline.

For every design the paper reports: Verilog lines, BLIF-MV lines, time
to read the BLIF-MV (parse + build the transition-relation BDDs),
reached states, number of LC properties + total LC time, number of CTL
formulas + total model-checking time.  One pytest-benchmark per design
per phase regenerates the full row; the session summary prints the
reproduced table next to the paper's numbers (see EXPERIMENTS.md for the
shape discussion).

Absolute times are not comparable (pure Python vs 1994 C on a DEC 5900),
but the orderings — which design has the most states, which LC/MC runs
dominate — should match.
"""

import os

import pytest

from conftest import engine_columns
from paper_data import PAPER_TABLE1
from repro.config import EngineConfig
from repro.ctl import ModelChecker
from repro.lc import check_containment
from repro.models import TABLE1, get_spec
from repro.network import SymbolicFsm

_SPECS = {}
_PREP = {}

# Kernel knobs, settable from the environment so the cache-limit /
# auto-GC ablations run against the same bench without code edits:
#   HSIS_CACHE_LIMIT=5000 HSIS_AUTO_GC=100000 pytest benchmarks/bench_table1.py
_CACHE_LIMIT = int(os.environ["HSIS_CACHE_LIMIT"]) if "HSIS_CACHE_LIMIT" in os.environ else None
_AUTO_GC = int(os.environ["HSIS_AUTO_GC"]) if "HSIS_AUTO_GC" in os.environ else None


def make_fsm(flat):
    return SymbolicFsm(
        flat, config=EngineConfig(auto_gc=_AUTO_GC, cache_limit=_CACHE_LIMIT)
    )


def spec_for(name):
    if name not in _SPECS:
        _SPECS[name] = get_spec(name)
    return _SPECS[name]


def prepared(name):
    """Built machine + reached states, shared by the mc/lc phases."""
    if name not in _PREP:
        spec = spec_for(name)
        fsm = make_fsm(spec.flat())
        fsm.build_transition(method="greedy")
        reach = fsm.reachable()
        _PREP[name] = (fsm, reach)
    return _PREP[name]


@pytest.mark.parametrize("name", TABLE1)
def test_read_design(benchmark, name, results_collector):
    """'read blif_mv' column: encode the network and build T(x, y)."""
    spec = spec_for(name)
    flat = spec.flat()

    def read():
        fsm = make_fsm(flat)
        fsm.build_transition(method="greedy")
        return fsm

    fsm = benchmark.pedantic(read, rounds=1, iterations=1)
    columns = {
        "vl_lines": spec.verilog_lines,
        "mv_lines": spec.blifmv_lines,
        "read_s": benchmark.stats["mean"],
        "paper_mv_lines": PAPER_TABLE1[name]["blifmv_lines"],
    }
    columns.update(engine_columns(fsm))
    results_collector("table1", name, columns)


@pytest.mark.parametrize("name", TABLE1)
def test_reached_states(benchmark, name, results_collector):
    """'# reached states' column."""
    fsm, _ = prepared(name)

    def reach():
        return fsm.reachable()

    result = benchmark.pedantic(reach, rounds=1, iterations=1)
    _PREP[name] = (fsm, result)
    columns = {
        "states": fsm.count_states(result.reached),
        "reach_iters": result.iterations,
        "paper_states": PAPER_TABLE1[name]["states"],
    }
    columns.update(engine_columns(fsm))
    results_collector("table1", name, columns)


@pytest.mark.parametrize("name", TABLE1)
def test_language_containment(benchmark, name, results_collector):
    """'# lc props' and 'time lc' columns: all automata properties."""
    spec = spec_for(name)

    def run_all():
        verdicts = []
        for automaton in spec.pif.automata:
            fsm = make_fsm(spec.flat())
            fairness = spec.pif.bind_fairness(fsm)
            result = check_containment(fsm, automaton, system_fairness=fairness)
            verdicts.append(result.holds)
        return verdicts

    verdicts = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(verdicts), f"{name}: an LC property failed"
    results_collector("table1", name, {
        "lc_props": len(spec.pif.automata),
        "lc_s": benchmark.stats["mean"],
        "paper_lc_s": PAPER_TABLE1[name]["lc_s"],
    })


@pytest.mark.parametrize("name", TABLE1)
def test_model_checking(benchmark, name, results_collector):
    """'# CTL formulas' and 'time mc' columns: all CTL properties."""
    spec = spec_for(name)
    fsm, reach = prepared(name)

    def run_all():
        checker = ModelChecker(
            fsm, fairness=spec.pif.bind_fairness(fsm), reached=reach.reached)
        return [checker.check(f).holds for _n, f in spec.pif.ctl_props]

    verdicts = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(verdicts), f"{name}: a CTL property failed"
    results_collector("table1", name, {
        "ctl_props": len(spec.pif.ctl_props),
        "mc_s": benchmark.stats["mean"],
        "paper_mc_s": PAPER_TABLE1[name]["mc_s"],
    })
