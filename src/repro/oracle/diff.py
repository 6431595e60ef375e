"""The differential harness: symbolic engines vs the explicit oracle.

One *trial* (:func:`run_trial`) runs, from a single seed:

1. a BDD-operator fuzz round — a random operation DAG over 4-5
   variables, every node verified exhaustively against its
   :class:`~repro.oracle.truthtable.TruthTable` mask,
2. a generated model cross-check — symbolic reachability (state sets,
   counts, BFS ring structure), fair-CTL sat sets state-by-state (plus
   the ``AG`` invariant fast path verdict), and language containment
   verdicts with counterexample-lasso validation, each compared against
   the explicit engines of :mod:`repro.oracle`.

Any mismatch is reported as a :class:`Divergence`.  :func:`run_sweep`
runs many trials, greedily shrinks failing cases to minimal repros, and
writes them into a corpus directory that
:func:`replay_corpus_entry` (and ``tests/test_differential.py``) replay.
Timing flows through :class:`repro.perf.EngineStats` phases
(``fuzz.gen`` / ``fuzz.bddops`` / ``fuzz.oracle`` / ``fuzz.reach`` /
``fuzz.mc`` / ``fuzz.lc``).
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bdd.manager import BDD
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ctl.modelcheck import ModelChecker
from repro.debug.lcdebug import lc_counterexample
from repro.lc.containment import check_containment
from repro.network.fsm import SymbolicFsm
from repro.oracle.containment import (
    check_containment_explicit,
    system_fairness_from_descs,
    validate_lc_trace,
)
from repro.oracle.ctl import ExplicitModelChecker
from repro.oracle.explicit import ExplicitKripke, State
from repro.oracle.fuzz import (
    automaton_from_desc,
    case_from_payload,
    case_to_payload,
    fairness_spec_from_descs,
    format_ctl,
    gen_case,
    shrink_case,
)
from repro.oracle.truthtable import TruthTable
from repro.perf import EngineStats

ORACLE_MAX_SPACE = 4096


@dataclass
class Divergence:
    """One disagreement between a symbolic engine and the oracle."""

    area: str  # bddops | reach | ctl | invariant | lc | trace | crash
    seed: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.area}] seed={self.seed}: {self.detail}"


@dataclass
class TrialReport:
    """Outcome of one seeded trial."""

    seed: int
    divergences: List[Divergence]
    seconds: float
    skipped: bool = False
    case: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class SweepReport:
    """Outcome of a multi-trial sweep."""

    trials: int
    seed0: int
    reports: List[TrialReport] = field(default_factory=list)
    corpus_written: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def divergences(self) -> List[Divergence]:
        return [d for r in self.reports for d in r.divergences]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        n_div = len(self.divergences)
        failing = sum(1 for r in self.reports if not r.ok)
        lines = [
            f"fuzz sweep: {self.trials} trial(s) from seed {self.seed0}, "
            f"{self.seconds:.2f}s, "
            f"{n_div} divergence(s) in {failing} trial(s)"
        ]
        for d in self.divergences:
            lines.append(f"  {d}")
        for path in self.corpus_written:
            lines.append(f"  corpus repro written: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# BDD-operator fuzzing against truth tables
# ----------------------------------------------------------------------


def bddops_trial(
    rng: random.Random,
    seed: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> List[Divergence]:
    """Grow a random operation DAG, verifying every node exhaustively.

    The manager runs under ``config`` with its ``cache_limit`` drawn
    from ``rng``.  A ``maybe_gc`` safe point (with the whole pool as
    roots) runs after every step, so with ``auto_reorder`` or
    ``auto_gc`` set, sifting and collection fire mid-trial and every
    node is re-verified against its truth table afterwards — proving
    they never change a function.
    """
    divergences: List[Divergence] = []
    n = rng.choice([4, 5])
    bdd = BDD(replace(config, cache_limit=rng.choice([None, None, 512])))
    for j in range(n):
        bdd.add_var(f"v{j}")
    all_vars = list(range(n))
    pool: List[Tuple[int, TruthTable, str]] = [
        (bdd.false, TruthTable.false(n), "false"),
        (bdd.true, TruthTable.true(n), "true"),
    ]
    for j in range(n):
        pool.append((bdd.var(j), TruthTable.var(n, j), f"v{j}"))

    def verify(node: int, table: TruthTable, what: str) -> bool:
        for a in range(1 << n):
            assignment = {j: bool((a >> j) & 1) for j in all_vars}
            if bdd.eval(node, assignment) != table.eval(a):
                divergences.append(
                    Divergence(
                        "bddops",
                        seed,
                        f"{what}: node disagrees with truth table at "
                        f"assignment {a:0{n}b}",
                    )
                )
                return False
        if bdd.sat_count(node, all_vars) != table.count():
            divergences.append(
                Divergence("bddops", seed, f"{what}: sat_count mismatch")
            )
            return False
        if set(bdd.support(node)) != table.support():
            divergences.append(
                Divergence("bddops", seed, f"{what}: support mismatch")
            )
            return False
        return True

    def pick(k: int) -> List[Tuple[int, TruthTable, str]]:
        return [pool[rng.randrange(len(pool))] for _ in range(k)]

    steps = rng.randint(12, 24)
    for step in range(steps):
        op = rng.choice(
            ["not", "and", "or", "xor", "implies", "diff", "ite",
             "exist", "forall", "and_exists", "compose", "restrict"]
        )
        if op == "not":
            (f, tf, _), = pick(1)
            node, table = bdd.not_(f), ~tf
        elif op in ("and", "or", "xor", "implies", "diff"):
            (f, tf, _), (g, tg, _) = pick(2)
            node = getattr(bdd, {"and": "and_", "or": "or_"}.get(op, op))(f, g)
            table = {
                "and": tf & tg,
                "or": tf | tg,
                "xor": tf ^ tg,
                "implies": tf.implies(tg),
                "diff": tf.diff(tg),
            }[op]
        elif op == "ite":
            (f, tf, _), (g, tg, _), (h, th, _) = pick(3)
            node, table = bdd.ite(f, g, h), tf.ite(tg, th)
        elif op in ("exist", "forall"):
            (f, tf, _), = pick(1)
            qvars = rng.sample(all_vars, rng.randint(1, n - 1))
            if op == "exist":
                node, table = bdd.exist(qvars, f), tf.exist(qvars)
            else:
                node, table = bdd.forall(qvars, f), tf.forall(qvars)
        elif op == "and_exists":
            (f, tf, _), (g, tg, _) = pick(2)
            qvars = rng.sample(all_vars, rng.randint(1, n - 1))
            node, table = bdd.and_exists(f, g, qvars), tf.and_exists(tg, qvars)
        elif op == "compose":
            (f, tf, _), (g, tg, _) = pick(2)
            j = rng.choice(all_vars)
            node, table = bdd.compose(f, j, g), tf.compose(j, tg)
        else:  # restrict (cofactor by partial assignment)
            (f, tf, _), = pick(1)
            partial = {
                j: rng.random() < 0.5
                for j in rng.sample(all_vars, rng.randint(1, n - 1))
            }
            node, table = bdd.restrict(f, partial), tf.cofactor(partial)
        if not verify(node, table, f"step {step} ({op})"):
            return divergences
        pool.append((node, table, f"t{step}"))
        # Safe point: everything live is in the pool, so GC/reordering
        # here must preserve every pooled function verbatim.
        bdd.maybe_gc(extra_roots=[entry[0] for entry in pool])

    # Generalized cofactors agree on the care set; pick_cube satisfies.
    (f, tf, _), (c, tc, _) = pick(2)
    if c == bdd.false:  # cofactors by an empty care set are undefined
        c, tc = bdd.true, TruthTable.true(n)
    for name, result in (
        ("constrain", bdd.constrain(f, c)),
        ("restrict_dc", bdd.restrict_dc(f, c)),
    ):
        for a in range(1 << n):
            if not tc.eval(a):
                continue
            assignment = {j: bool((a >> j) & 1) for j in all_vars}
            if bdd.eval(result, assignment) != tf.eval(a):
                divergences.append(
                    Divergence(
                        "bddops", seed,
                        f"{name}: disagrees with argument on care set",
                    )
                )
                break
    (f, tf, _), = pick(1)
    cube = bdd.pick_cube(f, all_vars)
    if (cube is None) != (tf.mask == 0):
        divergences.append(
            Divergence("bddops", seed, "pick_cube emptiness mismatch")
        )
    elif cube is not None and not tf.eval_dict(
        {j: cube.get(j, False) for j in all_vars}
    ):
        divergences.append(
            Divergence("bddops", seed, "pick_cube returned a non-model")
        )
    return divergences


# ----------------------------------------------------------------------
# Model-level cross-checks
# ----------------------------------------------------------------------


def state_bits(fsm: SymbolicFsm, state: State, latch_names) -> Dict[int, bool]:
    """Boolean x-bit assignment of one explicit latch-value tuple.

    Matched by latch *name*: the encoder may order ``fsm.latches``
    differently from ``model.latches``.
    """
    valuation = dict(zip(latch_names, state))
    assignment: Dict[int, bool] = {}
    for latch in fsm.latches:
        code = latch.x.code_of(valuation[latch.name])
        for i, bit in enumerate(latch.x.bits):
            assignment[bit] = bool((code >> i) & 1)
    return assignment


def decode_states(fsm: SymbolicFsm, node: int, latch_names) -> FrozenSet[State]:
    return frozenset(
        tuple(d[name] for name in latch_names)
        for d in fsm.states_iter(node)
    )


def _fmt_states(states: Set[State], limit: int = 6) -> str:
    shown = sorted(states)[:limit]
    extra = "" if len(states) <= limit else f" (+{len(states) - limit} more)"
    return "{" + ", ".join("/".join(s) for s in shown) + "}" + extra


def run_case(
    case: dict,
    seed: int,
    stats: EngineStats,
    config: EngineConfig = DEFAULT_CONFIG,
) -> List[Divergence]:
    """Cross-check one generated case end-to-end.  Engine exceptions are
    reported as ``crash`` divergences rather than raised.

    Every symbolic engine the case spins up runs under ``config``; its
    kernel settings (``auto_gc``, ``cache_limit``, ``auto_reorder``)
    must not change a verdict.  ``portfolio`` (K)
    installs ordering-portfolio heuristic ``seed % K`` as the explicit
    variable order — deterministic round-robin rather than racing, so
    every candidate order faces the oracle across a sweep while
    parallel and serial sweeps stay bit-identical.  ``shared_shapes``
    additionally verifies a wrapper design instantiating the generated
    model twice: the shared-shape elaboration (second instance built by
    BDD substitution, never table-encoded) must reach exactly the same
    state set as a plain flatten of the identical wrapper — the
    flattened path is itself oracle-validated by the rest of the trial
    (see docs/hierarchy.md)."""
    divergences: List[Divergence] = []
    model = case["model"]
    order = None
    if config.portfolio:
        from repro.ordering_portfolio import portfolio_order_for

        _, order = portfolio_order_for(model, config.portfolio, seed)
    with stats.phase("fuzz.oracle"):
        kripke = ExplicitKripke(model)
        ex_reached, ex_rings = kripke.reachable()
    latch_names = kripke.latch_names

    # -- reachability --------------------------------------------------
    with stats.phase("fuzz.reach"):
        fsm = SymbolicFsm(model, config=config, tracer=stats.tracer,
                          order=order)
        fsm.build_transition(method=case["build_method"])
        reach = fsm.reachable(partitioned=case["partitioned"])
        sym_reached = decode_states(fsm, reach.reached, latch_names)
        if sym_reached != ex_reached:
            divergences.append(
                Divergence(
                    "reach", seed,
                    f"reachable sets differ: symbolic-only "
                    f"{_fmt_states(sym_reached - ex_reached)}, oracle-only "
                    f"{_fmt_states(ex_reached - sym_reached)}",
                )
            )
        if fsm.count_states(reach.reached) != len(ex_reached):
            divergences.append(
                Divergence(
                    "reach", seed,
                    f"count_states says {fsm.count_states(reach.reached)}, "
                    f"oracle says {len(ex_reached)}",
                )
            )
        if len(reach.rings) != len(ex_rings):
            divergences.append(
                Divergence(
                    "reach", seed,
                    f"BFS depth differs: {len(reach.rings)} symbolic rings "
                    f"vs {len(ex_rings)} oracle rings",
                )
            )
        else:
            for depth, (ring, ex_ring) in enumerate(zip(reach.rings, ex_rings)):
                if decode_states(fsm, ring, latch_names) != ex_ring:
                    divergences.append(
                        Divergence(
                            "reach", seed, f"BFS ring {depth} differs"
                        )
                    )
                    break

    # -- fair CTL ------------------------------------------------------
    with stats.phase("fuzz.mc"):
        spec = fairness_spec_from_descs(fsm, case["fairness"])
        mc = ModelChecker(fsm, fairness=spec)
        emc = ExplicitModelChecker.for_kripke(
            kripke, system_fairness_from_descs(kripke, case["fairness"])
        )
        for formula in case["formulas"]:
            sym_sat = mc.eval(formula)
            ex_sat = emc.eval(formula)
            for state in kripke.states:
                sym_member = fsm.bdd.eval(
                    sym_sat, state_bits(fsm, state, latch_names)
                )
                if sym_member != (state in ex_sat):
                    side = "symbolic" if sym_member else "oracle"
                    divergences.append(
                        Divergence(
                            "ctl", seed,
                            f"{format_ctl(formula)}: only {side} satisfies "
                            f"state {'/'.join(state)}",
                        )
                    )
                    break
        invariant = case["invariant"]
        sym_verdict = mc.check(invariant).holds
        ex_verdict = kripke.init_states <= emc.eval(invariant)
        if sym_verdict != ex_verdict:
            divergences.append(
                Divergence(
                    "invariant", seed,
                    f"{format_ctl(invariant)}: fast-path verdict "
                    f"{sym_verdict}, oracle verdict {ex_verdict}",
                )
            )

    # -- language containment ------------------------------------------
    # A machine of its own, not a product of ``fsm``: sharing fsm's
    # manager would raise the trial's peak live nodes.
    with stats.phase("fuzz.lc"):
        automaton = automaton_from_desc(case["automaton"])
        lc_fsm = SymbolicFsm(
            model, config=config, tracer=stats.tracer, order=order,
        )
        lc_spec = fairness_spec_from_descs(lc_fsm, case["fairness"])
        lc = check_containment(
            lc_fsm, automaton, system_fairness=lc_spec,
            quantify_method=case["build_method"],
        )
        explicit = check_containment_explicit(
            kripke,
            automaton_from_desc(case["automaton"]),
            system_fairness_from_descs(kripke, case["fairness"]),
        )
        if lc.holds != explicit.holds:
            divergences.append(
                Divergence(
                    "lc", seed,
                    f"containment verdict: symbolic {lc.holds}, "
                    f"oracle {explicit.holds}"
                    + (" (early-fail path)" if lc.early_failure else ""),
                )
            )
        elif not lc.holds:
            trace = lc_counterexample(lc)
            problems = validate_lc_trace(
                kripke, lc.monitor.automaton, trace,
                monitor_var=f"{automaton.name}.state",
            )
            for problem in problems:
                divergences.append(Divergence("trace", seed, problem))

    # -- shared-shape replica (optional) -------------------------------
    if config.shared_shapes:
        with stats.phase("fuzz.shapes"):
            divergences.extend(
                _shared_shape_replica_check(case, seed, stats, config)
            )

    # Fold the per-trial engines' own phase timers (encode, build_tr,
    # reach, mc, lc) and their managers' collections into the
    # sweep-level collector.
    for engine in (fsm, lc_fsm):
        stats.merge(engine.stats)
        stats.bump("gc_runs", engine.bdd.gc_count)
    return divergences


def _shared_shape_replica_check(
    case: dict,
    seed: int,
    stats: EngineStats,
    config: EngineConfig = DEFAULT_CONFIG,
) -> List[Divergence]:
    """Verify shared-shape elaboration on a two-instance replica design.

    A wrapper model instantiates the generated model twice with all
    ports dangling.  The same wrapper is run twice — once through
    shape-aware :func:`elaborate` (the second instance is never
    table-encoded, only substituted) and once through plain
    :func:`flatten` — and the two reachable state sets must agree
    exactly.  The flattened path is oracle-validated by the rest of the
    trial, so parity here pins substitution correctness on every fuzz
    seed.  (Note the product's reachable set is *not* simply ``R x R``:
    synchronous copies can only pair states reachable at a common exact
    depth, so an oracle-derived count would be wrong in general.)
    """
    from repro.blifmv import Design
    from repro.blifmv.hierarchy import elaborate, flatten
    from repro.blifmv.ast import Model, Subckt

    model = case["model"]
    divergences: List[Divergence] = []
    top = Model(name="replica_top")
    top.subckts.append(Subckt(model=model.name, instance="a", connections={}))
    top.subckts.append(Subckt(model=model.name, instance="b", connections={}))
    design = Design(models={"replica_top": top, model.name: model},
                    root="replica_top")
    elab = elaborate(design)
    shared = SymbolicFsm(elab, config=config, tracer=stats.tracer)
    shared.build_transition(method=case["build_method"])
    shared_reach = shared.reachable(partitioned=case["partitioned"])
    shared_count = shared.count_states(shared_reach.reached)

    plain = SymbolicFsm(flatten(design), config=config, tracer=stats.tracer)
    plain.build_transition(method=case["build_method"])
    plain_reach = plain.reachable(partitioned=case["partitioned"])
    plain_count = plain.count_states(plain_reach.reached)

    latch_names = [latch.output for latch in elab.flat.latches]
    shared_states = decode_states(shared, shared_reach.reached, latch_names)
    plain_states = decode_states(plain, plain_reach.reached, latch_names)
    if shared_states != plain_states:
        divergences.append(
            Divergence(
                "shapes", seed,
                f"replica reachable sets differ: shared-only "
                f"{_fmt_states(shared_states - plain_states)}, flatten-only "
                f"{_fmt_states(plain_states - shared_states)}",
            )
        )
    elif shared_count != plain_count:
        divergences.append(
            Divergence(
                "shapes", seed,
                f"replica state counts differ: shared-shape {shared_count}, "
                f"plain flatten {plain_count}",
            )
        )
    if shared.network.instances_substituted < 1:
        divergences.append(
            Divergence(
                "shapes", seed,
                "replica design encoded without any instance substitution "
                f"(shapes_encoded={shared.network.shapes_encoded})",
            )
        )
    stats.merge(shared.stats)
    stats.merge(plain.stats)
    return divergences


def _safe_run_case(
    case: dict,
    seed: int,
    stats: EngineStats,
    config: EngineConfig = DEFAULT_CONFIG,
) -> List[Divergence]:
    try:
        return run_case(case, seed, stats, config)
    except Exception:
        tail = traceback.format_exc().strip().splitlines()[-1]
        return [Divergence("crash", seed, tail)]


# ----------------------------------------------------------------------
# Trials, sweeps, corpus
# ----------------------------------------------------------------------


def _ops_rng(seed: int) -> random.Random:
    return random.Random((seed << 1) | 1)


def _case_rng(seed: int) -> random.Random:
    return random.Random(seed << 1)


def run_trial(
    seed: int,
    stats: Optional[EngineStats] = None,
    max_space: int = ORACLE_MAX_SPACE,
    keep_case: bool = False,
    config: EngineConfig = DEFAULT_CONFIG,
) -> TrialReport:
    """One full differential trial from one seed."""
    stats = stats if stats is not None else EngineStats()
    start = time.perf_counter()
    divergences: List[Divergence] = []
    with stats.phase("fuzz.bddops"):
        divergences.extend(bddops_trial(_ops_rng(seed), seed, config))
    with stats.phase("fuzz.gen"):
        case = gen_case(_case_rng(seed), max_space=max_space)
    divergences.extend(_safe_run_case(case, seed, stats, config))
    return TrialReport(
        seed=seed,
        divergences=divergences,
        seconds=time.perf_counter() - start,
        case=case if keep_case else None,
    )


def _shrink_and_describe(
    case: dict,
    seed: int,
    areas: Set[str],
    config: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Minimize a failing case while any of ``areas`` keeps diverging."""

    def still_fails(candidate: dict) -> bool:
        found = _safe_run_case(candidate, seed, EngineStats(), config)
        return any(d.area in areas for d in found)

    return shrink_case(case, still_fails)


def write_corpus_entry(
    corpus_dir: Path,
    seed: int,
    areas: Set[str],
    case: Optional[dict],
    note: str,
    config: EngineConfig = DEFAULT_CONFIG,
) -> str:
    """Persist one repro; returns the written path.

    The settings of ``config`` that differ from their defaults are
    recorded under ``"config"`` (the key is absent when all are
    default), so a divergence that needs, say, ``shared_shapes``
    replays under it.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    kind = "bddops" if areas == {"bddops"} else "case"
    entry: dict = {
        "kind": kind,
        "seed": seed,
        "areas": sorted(areas),
        "note": note,
    }
    overrides = config.overrides()
    if overrides:
        entry["config"] = overrides
    if kind == "case" and case is not None:
        entry["payload"] = case_to_payload(case)
    path = corpus_dir / f"seed{seed:06d}_{'_'.join(sorted(areas))}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return str(path)


def replay_corpus_entry(entry: dict) -> List[Divergence]:
    """Re-run a corpus repro under the settings it was found with; a
    healthy tree returns no divergences."""
    seed = entry["seed"]
    config = EngineConfig.of(entry.get("config", {}))
    if entry["kind"] == "bddops":
        return bddops_trial(_ops_rng(seed), seed, config)
    if entry["kind"] == "case":
        case = case_from_payload(entry["payload"])
        return _safe_run_case(case, seed, EngineStats(), config)
    raise ValueError(f"unknown corpus entry kind {entry['kind']!r}")


def replay_corpus_dir(corpus_dir) -> Dict[str, List[Divergence]]:
    """Replay every ``*.json`` repro under ``corpus_dir``."""
    out: Dict[str, List[Divergence]] = {}
    for path in sorted(Path(corpus_dir).glob("*.json")):
        entry = json.loads(path.read_text())
        out[path.name] = replay_corpus_entry(entry)
    return out


def run_sweep(
    trials: int,
    seed0: int = 0,
    stats: Optional[EngineStats] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    max_space: int = ORACLE_MAX_SPACE,
    progress=None,
    config: EngineConfig = DEFAULT_CONFIG,
    **settings,
) -> SweepReport:
    """Run ``trials`` seeded trials; shrink and record any divergence.

    Every engine runs under ``config``; ``settings`` override single
    fields of it (``run_sweep(6, portfolio=4)``).
    """
    config = replace(config, **settings)
    stats = stats if stats is not None else EngineStats()
    sweep = SweepReport(trials=trials, seed0=seed0)
    start = time.perf_counter()
    for i in range(trials):
        seed = seed0 + i
        with stats.tracer.span("fuzz.trial", cat="fuzz", seed=seed) as span:
            report = run_trial(
                seed, stats=stats, max_space=max_space, keep_case=True,
                config=config,
            )
            span.add(divergences=len(report.divergences))
        sweep.reports.append(report)
        if progress is not None:
            progress(report)
        if report.divergences and corpus_dir is not None:
            areas = {d.area for d in report.divergences}
            case = report.case
            if shrink and case is not None and areas != {"bddops"}:
                with stats.phase("fuzz.shrink"):
                    case = _shrink_and_describe(
                        case, seed, areas - {"bddops"}, config,
                    )
            path = write_corpus_entry(
                corpus_dir, seed, areas, case,
                note=str(report.divergences[0]), config=config,
            )
            sweep.corpus_written.append(path)
    sweep.seconds = time.perf_counter() - start
    return sweep
