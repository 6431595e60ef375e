"""Tests for early-quantification scheduling (all methods must agree)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.models import mdlc, scheduler
from repro.network import SymbolicFsm
from repro.network.quantify import (
    METHODS,
    make_conjuncts,
    multiply_and_quantify,
    plan_linear,
    plan_monolithic,
    plan_schedule,
)

N_VARS = 8


def fresh():
    bdd = BDD()
    for i in range(N_VARS):
        bdd.add_var(f"v{i}")
    return bdd


def chain_conjuncts(bdd, length):
    """A chain r_i(v_i, v_{i+1}) — the classic early-quantification shape."""
    out = []
    for i in range(length):
        node = bdd.xnor(bdd.var(f"v{i}"), bdd.var(f"v{i + 1}"))
        out.append((node, f"r{i}"))
    return make_conjuncts(bdd, out)


class TestAgreement:
    @pytest.mark.parametrize("method", METHODS)
    def test_chain_result(self, method):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 5)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 5)}
        result = multiply_and_quantify(bdd, conjuncts, quantify, method=method)
        # The chain of equalities collapses to v0 == v5.
        assert result.node == bdd.xnor(bdd.var("v0"), bdd.var("v5"))

    def test_methods_agree_pairwise(self):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 6)
        quantify = {bdd.var_index(f"v{i}") for i in (1, 3, 5)}
        results = {
            m: multiply_and_quantify(bdd, conjuncts, quantify, method=m).node
            for m in METHODS
        }
        assert len(set(results.values())) == 1

    def test_empty_pool(self):
        bdd = fresh()
        result = multiply_and_quantify(bdd, [], {0, 1}, method="greedy")
        assert result.node == bdd.true

    def test_unknown_method(self):
        bdd = fresh()
        with pytest.raises(ValueError):
            multiply_and_quantify(bdd, [], set(), method="quantum")

    def test_vacuous_variables_ignored(self):
        bdd = fresh()
        conjuncts = make_conjuncts(bdd, [(bdd.var("v0"), "r0")])
        result = multiply_and_quantify(
            bdd, conjuncts, {bdd.var_index("v7")}, method="greedy"
        )
        assert result.node == bdd.var("v0")


class TestEarlyQuantificationWins:
    def test_greedy_peak_not_worse_than_monolithic_on_chain(self):
        """The whole point (paper §4): quantifying early keeps peaks small."""
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 7)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 7)}
        greedy = multiply_and_quantify(bdd, conjuncts, quantify, method="greedy")
        mono = multiply_and_quantify(bdd, conjuncts, quantify, method="monolithic")
        assert greedy.node == mono.node
        assert greedy.peak_size <= mono.peak_size

    @pytest.mark.parametrize("method", METHODS)
    def test_steps_recorded(self, method):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 4)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 4)}
        result = multiply_and_quantify(bdd, conjuncts, quantify, method=method)
        assert result.steps
        quantified = {v for step in result.steps for v in step.quantified}
        assert quantified == quantify


class TestAblationPeaks:
    """Pins Ablation A's peak intermediate sizes (EXPERIMENTS.md); the
    monolithic rows take seconds each and stay in the benchmark."""

    CASES = {
        "scheduler(n=8)": lambda: scheduler.spec(8),
        "2mdlc(w=3)": lambda: mdlc.spec(width=3),
    }

    @pytest.mark.parametrize("case, method, peak", [
        ("scheduler(n=8)", "greedy", 117),
        ("scheduler(n=8)", "linear", 1531),
        ("2mdlc(w=3)", "greedy", 449),
        ("2mdlc(w=3)", "linear", 692),
    ])
    def test_peak(self, case, method, peak):
        fsm = SymbolicFsm(self.CASES[case]().flat())
        fsm.build_transition(method=method)
        assert fsm.quantify_result.peak_size == peak


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(N_VARS)),
            st.sampled_from(range(N_VARS)),
            st.sampled_from(["and", "or", "xnor"]),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sets(st.sampled_from(range(N_VARS)), max_size=4),
)
def test_methods_agree_on_random_pools(pairs, quantify):
    """Property: all three schedulers compute the same function."""
    bdd = fresh()
    ops = {"and": bdd.and_, "or": bdd.or_, "xnor": bdd.xnor}
    pool = []
    for index, (a, b, op) in enumerate(pairs):
        node = ops[op](bdd.var(a), bdd.var(b))
        pool.append((node, f"r{index}"))
    conjuncts = make_conjuncts(bdd, pool)
    results = {
        m: multiply_and_quantify(bdd, conjuncts, set(quantify), method=m).node
        for m in METHODS
    }
    assert len(set(results.values())) == 1
    # Reference: naive conjunction then quantification.
    naive = bdd.exist(sorted(quantify), bdd.conj(n for n, _ in pool))
    assert results["monolithic"] == naive


def _assert_plan_sound(plan, supports, quantify):
    """Replay ``plan`` on planned supports alone and check that it
    consumes every slot exactly once and quantifies every present
    variable exactly once, only when no other live slot mentions it."""
    assert plan.inputs == len(supports)
    live = {i: frozenset(s) for i, s in enumerate(supports)}
    made = set(live)
    quantified = []
    for step in plan.steps:
        assert step.merge and len(set(step.merge)) == len(step.merge)
        assert all(i in live for i in step.merge), "slot reused or unborn"
        merged = frozenset().union(*(live.pop(i) for i in step.merge))
        others = frozenset().union(*live.values())
        for v in step.quantify:
            assert v in quantify and v in merged and v not in others
        quantified.extend(step.quantify)
        assert step.result not in made, "result slot is not fresh"
        made.add(step.result)
        live[step.result] = merged - set(step.quantify)
    assert len(plan.tail) == len(set(plan.tail))
    assert set(plan.tail) == set(live), "tail misses or repeats a slot"
    present = set(quantify) & frozenset().union(*supports)
    assert sorted(quantified) == sorted(present)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=8),
    st.sets(st.integers(0, 11), max_size=8),
    st.lists(st.sampled_from([None, 0, 1, 2]), max_size=8),
)
def test_planners_consume_and_quantify_once(supports, quantify, owners):
    """Property: every planner's schedule is well formed and sound."""
    groups = [
        [slot for slot, owner in enumerate(owners[:len(supports)]) if owner == g]
        for g in range(3)
    ]
    plans = [
        plan_schedule(supports, quantify),
        plan_schedule(supports, quantify, groups=groups),
        plan_linear(supports, quantify),
        plan_monolithic(supports, quantify),
    ]
    for plan in plans:
        _assert_plan_sound(plan, supports, quantify)
