"""The ordering portfolio changes wall-clock time, never answers.

Parity: a race over any K candidates returns exactly the serial
verdicts, and the ``--results`` file ``hsis check`` writes is
byte-identical whether the check ran serially, as a cold race, or from
a warm order cache.  Faults: a losing candidate killed mid-run leaks no
processes; a race whose every candidate dies falls back to a serial
check instead of losing availability; an external cancel aborts the
race with :class:`PortfolioCancelled` rather than wedging the caller.
Hostile candidate workers live at module level and are injected by
monkeypatching ``repro.ordering_portfolio.race._race_worker`` — the
dispatch looks the symbol up at race time and fork-started workers
inherit the patched module state (same idiom as ``test_serve_faults``).
"""

import multiprocessing
import threading
import time

import pytest

from repro.blifmv import flatten, parse as parse_blifmv
from repro.models import get_spec
from repro.network import variable_order
from repro.oracle import run_sweep
from repro.ordering_portfolio import (
    OrderCache,
    PortfolioCancelled,
    candidate_orders,
    portfolio_order_for,
    run_portfolio_check,
)
from repro.ordering_portfolio.features import design_digest
from repro.ordering_portfolio.race import _race_worker as real_race_worker
from repro.parallel import WorkerPool, check_properties, run_sweep_parallel
from repro.perf import EngineStats
from repro.pif import parse_pif

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK,
    reason="hostile candidate workers live in this module; workers must fork",
)

#: Every race below must finish well within this, or a cancelled loser
#: (parked in a 600 s sleep) was waited on instead of reaped.
STALL_BUDGET_SECONDS = 30.0

BLIFMV = """
.model counter
.mv s,n 3
.table s -> n
0 1
1 2
2 0
.latch n s
.reset s
0
.end
"""

PIF = """
ctl can_reach_two :: EF s=2
ctl never_stuck :: AG EX TRUE
ctl bogus :: AG s=0
"""

SERIAL_VERDICTS = [
    ("can_reach_two", True),
    ("never_stuck", True),
    ("bogus", False),
]


@pytest.fixture(scope="module")
def flat():
    return flatten(parse_blifmv(BLIFMV))


@pytest.fixture(scope="module")
def pif():
    return parse_pif(PIF)


def holds(verdicts):
    return [(v.name, v.holds) for v in verdicts]


# -- hostile candidate workers (module-level: they cross a fork) --


def _seed_wins_losers_hang(model, properties, fairness_decls, order):
    """The seed candidate finishes honestly; every other hangs."""
    if list(order) == variable_order(model):
        return real_race_worker(model, properties, fairness_decls, order)
    time.sleep(600.0)


def _every_candidate_raises(model, properties, fairness_decls, order):
    raise RuntimeError("injected candidate failure")


def _every_candidate_hangs(model, properties, fairness_decls, order):
    time.sleep(600.0)


class TestParity:
    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_race_matches_serial_for_any_k(self, tmp_path, flat, pif, k):
        serial = check_properties(flat, pif.ctl_props, pif.fairness, jobs=1)
        cache = OrderCache(str(tmp_path / "orders"))
        raced, provenance = run_portfolio_check(
            flat, pif.ctl_props, pif.fairness, k=k, cache=cache,
        )
        assert holds(serial) == holds(raced) == SERIAL_VERDICTS
        assert [v.formula for v in raced] == [v.formula for v in serial]
        assert provenance["source"] == "race"
        assert 1 <= provenance["candidates"] <= k
        assert cache.stores == 1

    def test_warm_cache_skips_the_race(self, tmp_path, flat, pif):
        orders_dir = str(tmp_path / "orders")
        cold_stats, warm_stats = EngineStats(), EngineStats()
        cold, _ = run_portfolio_check(
            flat, pif.ctl_props, pif.fairness, k=2,
            orders_dir=orders_dir, stats=cold_stats,
        )
        warm, provenance = run_portfolio_check(
            flat, pif.ctl_props, pif.fairness, k=2,
            orders_dir=orders_dir, stats=warm_stats,
        )
        assert holds(warm) == holds(cold)
        assert provenance == {
            "source": "cache",
            "heuristic": provenance["heuristic"],
            "cache_hit": True,
            "candidates": 0,
            "margin_seconds": None,
        }
        assert cold_stats.counters["portfolio_races"] == 1
        assert warm_stats.counters["portfolio_cache_hits"] == 1
        assert "portfolio_races" not in warm_stats.counters
        assert warm_stats.meta["portfolio_source"] == "cache"

    def test_warm_deadline_runs_one_task(self, tmp_path, monkeypatch):
        """A warm check under a deadline is one pool task on one machine,
        with the verdicts of the check without a deadline."""
        spec = get_spec("dcnew")
        model, pif = spec.flat(), spec.pif
        cache = OrderCache(str(tmp_path / "orders"))
        heuristic, order = candidate_orders(model, 1)[0]
        cache.store(design_digest(model), heuristic, order)
        submitted = []
        run = WorkerPool.run

        def counting(pool, tasks, *args, **kwargs):
            submitted.extend(task.task_id for task in tasks)
            return run(pool, tasks, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run", counting)
        warm, provenance = run_portfolio_check(
            model, pif.ctl_props, pif.fairness, k=2, cache=cache,
            timeout=300.0,
        )
        assert provenance["source"] == "cache"
        assert len(submitted) == 1
        serial = check_properties(model, pif.ctl_props, pif.fairness)
        assert len(serial) == 7
        assert [(v.name, v.holds, v.status) for v in warm] == [
            (v.name, v.holds, v.status) for v in serial]

    def test_results_file_byte_identical_serial_cold_warm(self, tmp_path):
        """``hsis check --results`` writes the same bytes no matter how
        the verdicts were produced."""
        from repro.cli import main

        design = tmp_path / "counter.mv"
        design.write_text(BLIFMV)
        props = tmp_path / "props.pif"
        props.write_text(PIF)
        orders_dir = str(tmp_path / "orders")

        def check(out_name, *extra):
            out = tmp_path / out_name
            rc = main(
                ["check", str(design), str(props), "--results", str(out)]
                + list(extra)
            )
            assert rc == 1  # "bogus" fails by design
            return out.read_bytes()

        serial = check("serial.json")
        cold = check(
            "cold.json", "--portfolio", "3", "--orders-dir", orders_dir
        )
        warm = check(
            "warm.json", "--portfolio", "3", "--orders-dir", orders_dir
        )
        assert serial == cold == warm


class TestRaceFaults:
    @needs_fork
    def test_losers_are_reaped_not_awaited(
        self, tmp_path, flat, pif, monkeypatch
    ):
        """Losing candidates parked in a 600 s sleep are killed the
        moment the winner finishes — no leaked children, no stall."""
        import repro.ordering_portfolio.race as race

        monkeypatch.setattr(race, "_race_worker", _seed_wins_losers_hang)
        cache = OrderCache(str(tmp_path / "orders"))
        start = time.monotonic()
        verdicts, provenance = run_portfolio_check(
            flat, pif.ctl_props, pif.fairness, k=2, cache=cache,
        )
        elapsed = time.monotonic() - start
        assert elapsed < STALL_BUDGET_SECONDS, "race waited for a loser"
        assert not multiprocessing.active_children(), "loser leaked"
        assert holds(verdicts) == SERIAL_VERDICTS
        assert provenance["source"] == "race"
        assert provenance["heuristic"] == "seed"
        assert cache.stores == 1  # the winner (only) was persisted

    @needs_fork
    def test_all_candidates_failing_falls_back_to_serial(
        self, tmp_path, flat, pif, monkeypatch
    ):
        import repro.ordering_portfolio.race as race

        monkeypatch.setattr(race, "_race_worker", _every_candidate_raises)
        cache = OrderCache(str(tmp_path / "orders"))
        stats = EngineStats()
        verdicts, provenance = run_portfolio_check(
            flat, pif.ctl_props, pif.fairness, k=2, cache=cache,
            stats=stats,
        )
        assert holds(verdicts) == SERIAL_VERDICTS
        assert provenance["source"] == "fallback"
        assert provenance["heuristic"] == "seed"
        assert stats.counters["portfolio_race_failures"] == 1
        assert stats.meta["portfolio_source"] == "fallback"
        assert cache.stores == 0, "a failed race must not poison the cache"
        assert not multiprocessing.active_children()

    @needs_fork
    def test_external_cancel_raises_not_wedges(
        self, tmp_path, flat, pif, monkeypatch
    ):
        import repro.ordering_portfolio.race as race

        monkeypatch.setattr(race, "_race_worker", _every_candidate_hangs)
        cache = OrderCache(str(tmp_path / "orders"))
        pools = []

        def on_pool(pool):
            pools.append(pool)
            threading.Timer(0.5, pool.cancel).start()

        start = time.monotonic()
        with pytest.raises(PortfolioCancelled):
            run_portfolio_check(
                flat, pif.ctl_props, pif.fairness, k=2, cache=cache,
                on_pool=on_pool,
            )
        assert time.monotonic() - start < STALL_BUDGET_SECONDS
        assert len(pools) == 1 and pools[0].cancelled
        assert not multiprocessing.active_children(), "cancelled race leaked"
        assert cache.stores == 0


class TestServePortfolioKnob:
    def test_knob_races_then_hits_both_caches(self, tmp_path):
        """`portfolio` knob end-to-end: a cold submission races, an
        identical resubmission is served from the result cache, and a
        different K forks the result-cache key but still reuses the
        winning order from the shared order cache."""
        import asyncio

        from repro.serve import HsisServer, ServeClient

        async def body():
            server = HsisServer(
                host="127.0.0.1", port=0, jobs=1, timeout=60.0,
                cache_dir=str(tmp_path / "cache"),
                orders_dir=str(tmp_path / "orders"),
            )
            await server.start()
            try:
                async with ServeClient(port=server.port) as client:
                    plain = await client.submit(
                        "check", design={"gallery": "traffic"},
                    )
                    cold = await client.submit(
                        "check", design={"gallery": "traffic"},
                        knobs={"portfolio": 2},
                    )
                    repeat = await client.submit(
                        "check", design={"gallery": "traffic"},
                        knobs={"portfolio": 2},
                    )
                    other_k = await client.submit(
                        "check", design={"gallery": "traffic"},
                        knobs={"portfolio": 3},
                    )
                return plain, cold, repeat, other_k
            finally:
                await server.stop()

        plain, cold, repeat, other_k = asyncio.run(
            asyncio.wait_for(body(), STALL_BUDGET_SECONDS)
        )
        for r in (plain, cold, repeat, other_k):
            assert r["ok"] and r["status"] == "ok"

        def core(result):
            return [
                (v["name"], v["holds"]) for v in result["result"]["verdicts"]
            ]

        assert core(cold) == core(repeat) == core(other_k) == core(plain)
        assert not cold["cached"]
        assert cold["result"]["portfolio"]["source"] == "race"
        assert cold["result"]["portfolio"]["cache_hit"] is False
        assert repeat["cached"], "identical portfolio submission re-raced"
        assert not other_k["cached"], "portfolio K must fork the cache key"
        assert other_k["result"]["portfolio"]["source"] == "cache"
        assert other_k["result"]["portfolio"]["cache_hit"] is True


class TestDeterministicFuzzPick:
    def test_pick_is_a_pure_function_of_model_k_seed(self, flat):
        first = portfolio_order_for(flat, 4, 7)
        again = portfolio_order_for(flat, 4, 7)
        assert first == again
        name, order = first
        candidates = candidate_orders(flat, 4)
        assert (name, order) in candidates
        # Seeds cycle round-robin through the candidate list.
        picks = {portfolio_order_for(flat, 4, s)[0] for s in range(8)}
        assert picks == {n for n, _ in candidates}

    def test_parallel_portfolio_sweep_matches_serial(self):
        serial = run_sweep(6, seed0=0, portfolio=4)
        parallel = run_sweep_parallel(6, seed0=0, jobs=2, portfolio=4)
        assert serial.ok and parallel.ok, (
            serial.summary() + "\n" + parallel.summary()
        )
        assert [r.seed for r in parallel.reports] == [
            r.seed for r in serial.reports
        ]
        assert [str(d) for d in parallel.divergences] == [
            str(d) for d in serial.divergences
        ]
