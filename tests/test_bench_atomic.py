"""Atomic ``results.json`` writes: an interrupted bench run must never
truncate the accumulated history.

The old code path opened the results file with ``"w"`` — truncating it
— before serializing, so a crash mid-write destroyed every accumulated
measurement.  :func:`repro.parallel.atomic.atomic_write_json` writes a
sibling temp file and ``os.replace``s it; these tests kill a write
mid-flight (both an in-process serialization failure and a worker that
``os._exit``s halfway through ``json.dump``) and assert the original
payload survives untouched.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.parallel.atomic import atomic_write_json

HISTORY = {"table1": {"gigamax": {"states": 630, "reach_iters": 10}}}


def _die_mid_serialization(path: str) -> None:
    """Worker body: killed by ``os._exit`` while ``json.dump`` streams.

    The bomb object sorts last, so by the time the ``default`` hook
    fires, part of the payload is already on disk — exactly the
    "killed mid-flight" shape an interrupted bench run produces.
    """

    class Bomb:
        pass

    payload = {"aaaa": list(range(100)), "zzzz": Bomb()}
    atomic_write_json(path, payload, default=lambda obj: os._exit(1))


@pytest.fixture
def results(tmp_path):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(HISTORY, indent=2, sort_keys=True) + "\n")
    return path


class TestAtomicWrite:
    def test_successful_write_replaces_payload(self, results):
        atomic_write_json(str(results), {"new": {"row": {"value": 1}}})
        assert json.loads(results.read_text()) == {
            "new": {"row": {"value": 1}}
        }
        assert not list(results.parent.glob("*.tmp")), "temp file leaked"

    def test_serialization_failure_leaves_history_intact(self, results):
        before = results.read_bytes()
        with pytest.raises(TypeError):
            atomic_write_json(str(results), {"bad": object()})
        assert results.read_bytes() == before
        assert not list(results.parent.glob("*.tmp")), "temp file leaked"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the killed-writer worker lives in this module",
    )
    def test_killed_writer_leaves_history_intact(self, results):
        before = results.read_bytes()
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_die_mid_serialization, args=(str(results),)
        )
        proc.start()
        proc.join(30)
        assert proc.exitcode == 1, "writer should have died mid-dump"
        assert results.read_bytes() == before
        # A fresh write still works even after the litter of a kill.
        atomic_write_json(str(results), {"after": {"kill": {"ok": 1}}})
        assert json.loads(results.read_text()) == {
            "after": {"kill": {"ok": 1}}
        }

    def test_creates_missing_file(self, tmp_path):
        target = tmp_path / "fresh.json"
        atomic_write_json(str(target), {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}

    def test_output_is_stable(self, tmp_path):
        """sort_keys + trailing newline: byte-stable across runs, which
        the determinism tests compare directly."""
        target = tmp_path / "stable.json"
        atomic_write_json(str(target), {"b": 2, "a": 1})
        text = target.read_text()
        assert text == '{\n  "a": 1,\n  "b": 2\n}\n'


def test_importing_atomic_loads_no_engine():
    """``repro.parallel.atomic`` is stdlib-only; the package re-exports
    resolve lazily, so importing it (as the shape signature and the
    order cache's design digest do) loads neither the BDD engine nor
    the oracle."""
    code = (
        "import sys, repro.parallel.atomic\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    loaded = done.stdout.split()
    assert "repro.parallel.atomic" in loaded
    assert not [m for m in loaded if m.startswith(("repro.bdd", "repro.oracle"))]
