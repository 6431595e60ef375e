"""Partitioned reachability: equivalence, schedule reuse, GC pacing."""

import pytest

import repro.network.fsm as fsm_mod
from repro.models import get_spec
from repro.models.gallery import GALLERY
from repro.network import SymbolicFsm
from repro.network.quantify import (
    execute_schedule,
    make_conjuncts,
    plan_schedule,
)
from repro.trace import Tracer


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_partitioned_matches_monolithic(name):
    """Same reached set, same onion rings, without ever building T."""
    flat = get_spec(name).flat()
    mono = SymbolicFsm(flat)
    mono.build_transition()
    expected = mono.reachable()

    part = SymbolicFsm(flat)
    got = part.reachable(partitioned=True)
    assert part.trans is None, "partitioned reach must not build T"
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged
    assert len(got.rings) == len(expected.rings)
    # Same manager layout (same model, same encode), so node handles of
    # equal functions are directly comparable across the two runs.
    assert part.count_states(got.reached) == mono.count_states(expected.reached)
    assert [part.count_states(r) for r in got.rings] == [
        mono.count_states(r) for r in expected.rings
    ]


@pytest.mark.parametrize("name", ["traffic", "railroad"])
def test_partitioned_schedule_planned_once(name):
    """The greedy scheduler runs at most once per frozen conjunct pool."""
    flat = get_spec(name).flat()
    tracer = Tracer()
    fsm = SymbolicFsm(flat, tracer=tracer)
    result = fsm.reachable(partitioned=True)
    assert result.iterations > 1
    counters = fsm.stats.counters
    assert counters["partitioned_plans_built"] == 1
    assert counters["partitioned_images"] == result.iterations
    # The trace shows the same: one plan event, one image event per step.
    plans = [e for e in tracer.events if e["name"] == "fsm.partition_plan"]
    images = [e for e in tracer.events if e["name"] == "fsm.image_partitioned"]
    assert len(plans) == 1
    assert len(images) == result.iterations


def test_partition_plan_invalidated_by_pool_changes():
    flat = get_spec("traffic").flat()
    fsm = SymbolicFsm(flat)
    first = fsm.partition_schedule()
    assert fsm.partition_schedule() is first  # cached
    extra = fsm.bdd.true
    fsm.add_conjunct(extra, "extra")
    second = fsm.partition_schedule()
    assert second is not first
    assert second.inputs == first.inputs + 1
    assert fsm.stats.counters["partitioned_plans_built"] == 2


def test_plan_schedule_matches_greedy_result():
    """A replayed greedy plan equals the naive product-then-quantify
    reference, on the conjuncts it was planned for and on different
    conjunct values whose quantified variables sit in the same slots
    (the partitioned-image use case)."""
    from repro.bdd.manager import BDD

    bdd = BDD()
    v = [bdd.add_var(f"v{i}") for i in range(6)]
    f = [
        bdd.or_(bdd.var(v[0]), bdd.var(v[1])),
        bdd.and_(bdd.var(v[1]), bdd.not_(bdd.var(v[2]))),
        bdd.xor(bdd.var(v[2]), bdd.var(v[3])),
        bdd.or_(bdd.var(v[3]), bdd.and_(bdd.var(v[4]), bdd.var(v[5]))),
    ]
    conjuncts = make_conjuncts(bdd, [(node, f"c{i}") for i, node in enumerate(f)])
    quantify = {v[1], v[2], v[3]}

    def naive(nodes):
        return bdd.exist(sorted(quantify), bdd.conj(nodes))

    plan = plan_schedule([c.support for c in conjuncts], quantify)
    assert execute_schedule(bdd, f, plan).node == naive(f)
    g = [bdd.and_(node, bdd.or_(bdd.var(v[0]), bdd.var(v[5]))) for node in f]
    assert execute_schedule(bdd, g, plan).node == naive(g)


def test_execute_schedule_rejects_wrong_arity():
    plan = plan_schedule([frozenset({0}), frozenset({0, 1})], {0})
    from repro.bdd.manager import BDD

    bdd = BDD()
    bdd.add_var("a")
    with pytest.raises(ValueError):
        execute_schedule(bdd, [bdd.true], plan)


def test_hard_gc_rearms_instead_of_thrashing(monkeypatch):
    """A live set above the threshold must not trigger a sweep per ring."""
    flat = get_spec("elevator").flat()
    fsm = SymbolicFsm(flat)
    fsm.build_transition()
    # Force the hard-GC path from the first iteration: every node count
    # is above the threshold, which used to mean one full sweep per ring.
    monkeypatch.setattr(fsm_mod, "GC_NODE_THRESHOLD", 1)
    result = fsm.reachable()
    assert result.converged
    sweeps = fsm.stats.counters.get("reach_hard_gc", 0)
    assert 1 <= sweeps < result.iterations, (
        f"{sweeps} hard sweeps over {result.iterations} iterations"
    )


def test_hard_gc_still_fires_when_table_regrows(monkeypatch):
    """Re-arming must not disable hard GC outright."""
    flat = get_spec("traffic").flat()
    fsm = SymbolicFsm(flat)
    fsm.build_transition()
    monkeypatch.setattr(fsm_mod, "GC_NODE_THRESHOLD", 1)
    fsm.reachable()
    first = fsm.stats.counters.get("reach_hard_gc", 0)
    assert first >= 1
    # A fresh traversal re-arms from scratch and sweeps again.
    fsm.reachable()
    assert fsm.stats.counters.get("reach_hard_gc", 0) > first
