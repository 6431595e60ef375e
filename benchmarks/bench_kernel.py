"""Kernel micro-benches: node economy on negation-heavy workloads.

Complemented edges exist to make negation free: CTL's ``not``/``->``
connectives, Streett edge-removal and containment products all negate
state sets constantly, and a kernel that stores ``f`` and ``~f`` as
disjoint subgraphs pays for every one of them twice.  These benches pin
that cost down with deterministic workloads and record the numbers the
complemented-edge kernel is supposed to move:

* ``peak_nodes`` / ``final_nodes`` — node economy (the headline),
* ``cache_hit`` and per-op hit rates — the AND core turns equivalent
  ``and``/``or``/``diff``/``implies`` calls into one cache line, and
  standardized ITE triples do the same for ``ite``/``xor``/``xnor``,
* ``not_per_node`` style throughput columns for the O(1) negation path.

All node-count columns are deterministic, so ``compare.py`` gates them
as regressions (see ``is_node_column``), not as timing noise.
"""

import random

import numpy as np

from repro.bdd import BDD
from repro.blifmv import flatten, parse
from repro.ctl import check_ctl, parse_ctl
from repro.models import get_spec, pingpong
from repro.network import SymbolicFsm
from repro.network.encode import encode

# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------

N_VARS = 16
N_OPS = 140


def _random_pool(bdd: BDD, rng: random.Random, negation_heavy: bool):
    """Grow a deterministic random operation DAG over ``N_VARS`` inputs.

    The negation-heavy mix mirrors CTL evaluation (lots of ``not``,
    ``implies`` and ``diff``); the positive mix uses only monotone
    connectives as the control group.
    """
    pool = [bdd.var(j) for j in range(N_VARS)]
    if negation_heavy:
        ops = ("not", "not", "implies", "diff", "xnor", "and", "or")
    else:
        ops = ("and", "or", "and", "or", "ite")
    for _ in range(N_OPS):
        op = ops[rng.randrange(len(ops))]
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        if op == "not":
            pool.append(bdd.not_(f))
        elif op == "implies":
            pool.append(bdd.implies(f, g))
        elif op == "diff":
            pool.append(bdd.diff(f, g))
        elif op == "xnor":
            pool.append(bdd.xnor(f, g))
        elif op == "and":
            pool.append(bdd.and_(f, g))
        elif op == "or":
            pool.append(bdd.or_(f, g))
        else:
            pool.append(bdd.ite(f, g, h))
    return pool


def _fresh_manager() -> BDD:
    bdd = BDD()
    for j in range(N_VARS):
        bdd.add_var(f"v{j}")
    return bdd


def _kernel_columns(bdd: BDD) -> dict:
    stats = bdd.stats()
    ite_like = [
        d for op, d in bdd.cache_stats().items()
        if op in ("ite", "and", "or", "xor") and d["lookups"]
    ]
    lookups = sum(d["lookups"] for d in ite_like)
    hits = sum(d["hits"] for d in ite_like)
    return {
        "peak_nodes": stats["peak_live_nodes"],
        "final_nodes": len(bdd),
        "cache_hit": round(bdd.cache_hit_rate(), 3),
        "ite_hit": round(hits / lookups, 3) if lookups else 0.0,
    }


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------


def test_negation_heavy_dag(benchmark, results_collector):
    """Random op DAG dominated by not/implies/diff (the CTL op mix)."""

    def run():
        bdd = _fresh_manager()
        _random_pool(bdd, random.Random(7), negation_heavy=True)
        return bdd

    bdd = benchmark.pedantic(run, rounds=3, iterations=1)
    row = {"seconds": benchmark.stats["mean"]}
    row.update(_kernel_columns(bdd))
    results_collector("kernel", "negation_dag", row)


def test_monotone_dag(benchmark, results_collector):
    """Control group: the same DAG shape with monotone connectives only."""

    def run():
        bdd = _fresh_manager()
        _random_pool(bdd, random.Random(7), negation_heavy=False)
        return bdd

    bdd = benchmark.pedantic(run, rounds=3, iterations=1)
    row = {"seconds": benchmark.stats["mean"]}
    row.update(_kernel_columns(bdd))
    results_collector("kernel", "monotone_dag", row)


def test_negation_throughput(benchmark, results_collector):
    """Raw not_ calls over a large function: must allocate nothing."""
    bdd = _fresh_manager()
    pool = _random_pool(bdd, random.Random(11), negation_heavy=False)
    f = pool[-1]
    live_before = len(bdd)
    reps = 20_000

    def run():
        g = f
        for _ in range(reps):
            g = bdd.not_(g)
        return g

    benchmark.pedantic(run, rounds=3, iterations=1)
    results_collector("kernel", "not_throughput", {
        "seconds": benchmark.stats["mean"],
        "not_per_s": round(reps / benchmark.stats["mean"], 0),
        "alloc_nodes": len(bdd) - live_before,
    })


def test_gc_sweep_throughput(benchmark, results_collector):
    """Vectorized mark/sweep over a ~120k-node heap of dead xor junk.

    Nothing is rooted, so the collector frees nearly the whole heap; the
    ``swept_per_s`` column is the flat-array store's headline win (the
    old per-node dict sweep ran an order of magnitude slower here).
    """
    meta = {}

    def setup():
        bdd = BDD()
        for j in range(24):
            bdd.add_var(f"s{j}")
        rng = random.Random(3)
        pool = [bdd.var(j) for j in range(24)]
        while len(bdd) < 120_000:
            f = pool[rng.randrange(len(pool))]
            g = pool[rng.randrange(len(pool))]
            pool.append(bdd.xor(f, g))
        meta["heap"] = len(bdd)
        return (bdd,), {}

    def run(bdd):
        meta["freed"] = bdd.gc()

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    results_collector("kernel", "gc_sweep", {
        "seconds": benchmark.stats["mean"],
        "swept_per_s": round(meta["heap"] / benchmark.stats["mean"], 0),
        "heap_nodes": meta["heap"],
    })


def test_eval_batch_throughput(benchmark, results_collector):
    """Vectorized lockstep evaluation of all 2^16 assignments at once."""
    bdd = _fresh_manager()
    pool = _random_pool(bdd, random.Random(11), negation_heavy=False)
    f = pool[-1]
    rows = ((np.arange(1 << N_VARS)[:, None] >> np.arange(N_VARS)) & 1).astype(bool)

    def run():
        return bdd.eval_batch(f, rows)

    got = benchmark.pedantic(run, rounds=3, iterations=1)
    # Spot-check against the scalar walker so the bench can't drift wrong.
    for a in (0, 1, 4097, (1 << N_VARS) - 1):
        env = {f"v{j}": bool((a >> j) & 1) for j in range(N_VARS)}
        assert bool(got[a]) == bdd.eval(f, env)
    results_collector("kernel", "eval_batch", {
        "seconds": benchmark.stats["mean"],
        "evals_per_s": round(rows.shape[0] / benchmark.stats["mean"], 0),
    })


COUNTER_N = """
.model counter
.mv s,n 16
.table s -> n
{rows}
.latch n s
.reset s
0
.end
"""


def _counter_model():
    rows = "\n".join(f"{i} {(i + 1) % 16}" for i in range(16))
    return flatten(parse(COUNTER_N.format(rows=rows)))


def test_ctl_negation_mc(benchmark, results_collector):
    """Negation-heavy CTL on a counter: nested ->/! over fixpoints."""
    formula = parse_ctl(
        "AG (!(s=3) -> !(EX (s=5 -> EX s=7)))"
    )

    def run():
        fsm = SymbolicFsm(_counter_model())
        fsm.build_transition()
        check_ctl(fsm, formula)
        return fsm

    fsm = benchmark.pedantic(run, rounds=3, iterations=1)
    row = {"seconds": benchmark.stats["mean"]}
    row.update(_kernel_columns(fsm.bdd))
    results_collector("kernel", "ctl_negation", row)


# ----------------------------------------------------------------------
# Construction throughput: table rows and fused relational products
# ----------------------------------------------------------------------
#
# Two construction workloads from the engine's hot consumers: table-row
# conjunct construction (``encode``) and fused relational products
# (``and_exists``).  The node columns are deterministic, so
# ``compare.py`` gates them as regressions, not as timing noise.


def test_table_encode_scalar(benchmark, results_collector):
    """Table-row conjunct construction on the gcd gallery design."""
    flat = get_spec("gcd").flat()
    n_rows = sum(len(t.rows) for t in flat.tables)

    def run():
        return encode(flat)

    run()  # warm-up: lazy imports and allocator pools skew round one
    enc = benchmark.pedantic(run, rounds=3, iterations=1)
    results_collector("kernel", "table_encode_scalar", {
        "seconds": benchmark.stats["mean"],
        "rows_per_s": round(n_rows / benchmark.stats["mean"], 0),
        "final_nodes": len(enc.bdd),
    })


ANDEX_VARS = 22
ANDEX_OPS = 300
ANDEX_REQS = 128


def _andex_workload():
    """A fresh manager plus ``ANDEX_REQS`` relational-product requests."""
    bdd = BDD()
    for j in range(ANDEX_VARS):
        bdd.add_var(f"v{j}")
    rng = random.Random(11)
    pool = [bdd.var(j) for j in range(ANDEX_VARS)]
    ops = ("and", "or", "and", "or", "ite")
    for _ in range(ANDEX_OPS):
        op = ops[rng.randrange(len(ops))]
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        if op == "and":
            pool.append(bdd.and_(f, g))
        elif op == "or":
            pool.append(bdd.or_(f, g))
        else:
            pool.append(bdd.ite(f, g, h))
    funcs = pool[-ANDEX_REQS:]
    cube = bdd.cube({f"v{j}": 1 for j in range(0, ANDEX_VARS, 2)})
    requests = [
        (funcs[i], funcs[(i * 7 + 3) % len(funcs)], cube)
        for i in range(ANDEX_REQS)
    ]
    return bdd, requests


def test_andexists_scalar(benchmark, results_collector):
    """128 relational products through the and-exists recursion."""
    meta = {}

    def setup():
        # A fresh manager per round: a warm computed cache would turn
        # later rounds into pure lookups and fake the throughput.
        bdd, requests = _andex_workload()
        meta["bdd"] = bdd
        return (bdd, requests), {}

    def run(bdd, requests):
        meta["results"] = [bdd.and_exists(f, g, c) for f, g, c in requests]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    bdd = meta["bdd"]
    results_collector("kernel", "andexists_scalar", {
        "seconds": benchmark.stats["mean"],
        "andex_per_s": round(ANDEX_REQS / benchmark.stats["mean"], 0),
        "result_nodes": sum(bdd.size(r) for r in meta["results"]),
    })


def _invariance_automaton(body: str):
    from repro.automata import Automaton
    from repro.pif import formula_to_guard

    good = formula_to_guard(parse_ctl(body))
    aut = Automaton(name="inv", states=["A", "B"], initial=["A"])
    aut.add_edge("A", "A", good)
    aut.add_edge("A", "B", ~good)
    aut.add_edge("B", "B")
    aut.accept_invariance(["A"])
    return aut


def test_containment_product(benchmark, results_collector):
    """Language-containment product on a gallery design (edge-removal
    negates fair sets repeatedly)."""
    from repro.lc import check_containment

    spec = pingpong.spec()
    flat = spec.flat()
    automaton = _invariance_automaton("!(ping_now=1 & pong_now=1)")

    def run():
        fsm = SymbolicFsm(flat)
        result = check_containment(fsm, automaton)
        return fsm, result

    fsm, _result = benchmark.pedantic(run, rounds=3, iterations=1)
    row = {"seconds": benchmark.stats["mean"]}
    row.update(_kernel_columns(fsm.bdd))
    results_collector("kernel", "containment", row)
