"""Hierarchical gallery designs and shared-vs-flatten parity.

The acceptance bar for shared-shape encoding (docs/hierarchy.md): on
every hierarchical gallery design at several replica counts, the
shape-aware encode must reach exactly the flat encode's state count,
report identical property verdicts, and prove via its counters that
each distinct shape was table-encoded exactly once.
"""

import pytest

from repro.config import EngineConfig
from repro.ctl import ModelChecker
from repro.models import get_spec
from repro.network.fsm import SymbolicFsm
from repro.oracle import run_sweep

HIER = ["philos_hier", "scheduler_hier", "gigamax_hier"]


def verdicts(fsm, pif):
    mc = ModelChecker(fsm, fairness=pif.bind_fairness(fsm))
    return [(name, mc.check(formula).holds) for name, formula in pif.ctl_props]


class TestHierGallery:
    @pytest.mark.parametrize("name", HIER)
    def test_default_spec_compiles_and_holds(self, name):
        spec = get_spec(name)
        assert spec.params == {"n": 3}
        fsm = SymbolicFsm(spec.elaborate())
        fsm.build_transition()
        fsm.reachable()
        assert all(holds for _, holds in verdicts(fsm, spec.pif))

    @pytest.mark.parametrize("name", HIER)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shared_matches_flatten(self, name, n):
        spec = get_spec(name, n=n)
        shared = SymbolicFsm(spec.elaborate())
        shared.build_transition()
        reach_s = shared.reachable()
        plain = SymbolicFsm(spec.flat())
        plain.build_transition()
        reach_p = plain.reachable()
        assert shared.count_states(reach_s.reached) == \
            plain.count_states(reach_p.reached)
        assert reach_s.iterations == reach_p.iterations
        assert verdicts(shared, spec.pif) == verdicts(plain, spec.pif)

    @pytest.mark.parametrize("name", HIER)
    def test_each_shape_encoded_exactly_once(self, name):
        # N=5 replicas, 2 shapes (top + cell): the cell's tables are
        # built once and the other four instances are substituted.
        spec = get_spec(name, n=5)
        fsm = SymbolicFsm(spec.elaborate())
        assert fsm.network.shapes_encoded == 2
        assert fsm.network.instances_substituted == 4
        groups = spec.elaborate().shape_groups()
        assert len(groups) == 2
        assert sorted(len(g) for g in groups.values()) == [1, 5]

    def test_too_few_replicas_rejected(self):
        with pytest.raises(ValueError):
            get_spec("philos_hier", n=1)


class TestSharedShapeFuzz:
    def test_sweep_with_replica_check_is_clean(self):
        sweep = run_sweep(20, seed0=0, config=EngineConfig(shared_shapes=True))
        problems = [d for r in sweep.reports for d in r.divergences]
        assert sweep.ok, problems
