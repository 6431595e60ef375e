"""Ablation A: early quantification schedules (paper §4, §1 item 5).

Building the product transition relation means conjoining many relation
BDDs and quantifying out the non-state variables.  The paper's claim:
scheduling quantification *early* keeps the peak intermediate BDD small
(their example: ~1600 relations, ~1500 variables, scheduled and built in
seconds).  This bench compares the three shipped schedulers on the
designs with the most conjuncts — scheduler and 2mdlc — reporting build
time and peak intermediate size.
"""

import pytest

from repro.models import mdlc, scheduler
from repro.network import SymbolicFsm

# Configurations where the monolithic baseline is slow but feasible —
# at scheduler n=8 the greedy/monolithic peak-size gap is already three
# orders of magnitude (117 vs ~164k nodes); larger n only times out the
# baseline without adding information.
CASES = {
    "scheduler(n=8)": lambda: scheduler.spec(8),
    "2mdlc(w=3)": lambda: mdlc.spec(width=3),
}

METHODS = ("greedy", "linear", "monolithic")


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", METHODS)
def test_build_transition(benchmark, case, method, results_collector):
    spec = CASES[case]()
    flat = spec.flat()

    def build():
        fsm = SymbolicFsm(flat)
        fsm.build_transition(method=method)
        return fsm

    fsm = benchmark.pedantic(build, rounds=1, iterations=1)
    assert fsm.quantify_result is not None
    results_collector("early_quantification", f"{case}/{method}", {
        "seconds": benchmark.stats["mean"],
        "peak_nodes": fsm.quantify_result.peak_size,
        "final_nodes": fsm.bdd.size(fsm.trans),
        "conjuncts": len(fsm.conjuncts),
    })


def test_schedulers_equivalent():
    """All schedules must produce the same relation (sanity anchor)."""
    spec = scheduler.spec(6)
    flat = spec.flat()
    images = set()
    for method in METHODS:
        fsm = SymbolicFsm(flat)
        fsm.build_transition(method=method)
        reach = fsm.reachable()
        images.add(fsm.count_states(reach.reached))
    assert len(images) == 1
