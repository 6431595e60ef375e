"""Parallel execution changes *nothing* about the answers.

The pool's contract (docs/parallel.md) is that fanning independent
jobs across worker processes affects only the wall-clock schedule:
``hsis fuzz --jobs 4`` produces the same verdicts, the same corpus
files, and the same merged stat totals as ``--jobs 1``; the benchmark
runner's ``results.json`` payload is byte-identical at any job count;
multi-property checking returns the serial verdicts.  These tests pin
that contract down.
"""

import json
import multiprocessing
import re
import shutil
from pathlib import Path

import pytest

from repro.blifmv import flatten, parse as parse_blifmv
from repro.cli import HsisShell
from repro.oracle import run_sweep
from repro.oracle.diff import Divergence
from repro.parallel import check_properties, run_sweep_parallel, shard_range
from repro.perf import EngineStats
from repro.pif import parse_pif

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

#: Acceptance range from ISSUE 3: a 200-seed sweep, parallel == serial.
ACCEPTANCE_TRIALS = 200

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


def phase_calls(stats: EngineStats) -> dict:
    """Scheduling-independent slice of a stats collector: call counts
    and counters (seconds are wall time and legitimately differ)."""
    return {
        "calls": {name: stat.calls for name, stat in stats.phases.items()},
        "counters": dict(stats.counters),
    }


def summary_without_timing(sweep) -> str:
    return re.sub(r"\d+\.\d+s", "_s", sweep.summary())


class TestShardRange:
    def test_partition_is_exact_and_ordered(self):
        chunks = shard_range(7, 23, 5)
        assert sum(count for _, count in chunks) == 23
        assert chunks[0][0] == 7
        rebuilt = [
            seed
            for start, count in chunks
            for seed in range(start, start + count)
        ]
        assert rebuilt == list(range(7, 30))

    def test_more_shards_than_items_collapses(self):
        assert shard_range(0, 3, 16) == [(0, 1), (1, 1), (2, 1)]
        assert shard_range(5, 0, 4) == []


class TestFuzzSweepDeterminism:
    def test_parallel_sweep_matches_serial_over_acceptance_range(self):
        serial_stats, parallel_stats = EngineStats(), EngineStats()
        serial = run_sweep(ACCEPTANCE_TRIALS, seed0=0, stats=serial_stats)
        parallel = run_sweep_parallel(
            ACCEPTANCE_TRIALS, seed0=0, jobs=4, stats=parallel_stats
        )
        assert serial.ok and parallel.ok, (
            serial.summary() + "\n" + parallel.summary()
        )
        assert [r.seed for r in parallel.reports] == [
            r.seed for r in serial.reports
        ]
        assert [r.ok for r in parallel.reports] == [
            r.ok for r in serial.reports
        ]
        assert [str(d) for d in parallel.divergences] == [
            str(d) for d in serial.divergences
        ]
        assert phase_calls(parallel_stats) == phase_calls(serial_stats)
        assert summary_without_timing(parallel) == summary_without_timing(
            serial
        )

    def test_nonzero_seed0_shards_the_right_seeds(self):
        parallel = run_sweep_parallel(10, seed0=90, jobs=3)
        assert [r.seed for r in parallel.reports] == list(range(90, 100))

    @pytest.mark.skipif(
        not HAVE_FORK, reason="monkeypatching workers requires fork"
    )
    def test_divergences_and_corpus_files_match_serial(
        self, tmp_path, monkeypatch
    ):
        """Inject a deterministic per-seed divergence and compare the
        corpus directories the two modes produce, byte for byte."""
        import repro.oracle.diff as diff

        def fake_bddops_trial(rng, seed, auto_reorder=None):
            if seed % 7 == 3:
                return [Divergence("bddops", seed, "injected for testing")]
            return []

        monkeypatch.setattr(diff, "bddops_trial", fake_bddops_trial)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_sweep(40, seed0=0, corpus_dir=str(serial_dir))
        parallel = run_sweep_parallel(
            40, seed0=0, jobs=4, corpus_dir=str(parallel_dir)
        )
        assert not serial.ok and not parallel.ok
        assert [str(d) for d in parallel.divergences] == [
            str(d) for d in serial.divergences
        ]
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files and serial_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()
        assert [Path(p).name for p in parallel.corpus_written] == [
            Path(p).name for p in serial.corpus_written
        ]


class TestBenchRunnerDeterminism:
    @pytest.fixture
    def suite(self, tmp_path):
        """A miniature bench suite recording deterministic rows through
        the real ``benchmarks/conftest.py`` collector."""
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        shutil.copy(BENCHMARKS / "conftest.py", suite_dir / "conftest.py")
        (suite_dir / "bench_alpha.py").write_text(
            "def test_alpha(results_collector):\n"
            "    results_collector('demo', 'alpha', {'value': 1, 'k': 10})\n"
        )
        (suite_dir / "bench_beta.py").write_text(
            "def test_beta(results_collector):\n"
            "    results_collector('demo', 'beta', {'value': 2})\n"
            "def test_beta_more(results_collector):\n"
            "    results_collector('other', 'beta', {'n': 3})\n"
        )
        return suite_dir

    def test_results_payload_identical_at_any_job_count(self, suite, tmp_path):
        from repro.parallel.bench import run_benchmarks

        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = run_benchmarks(
            suite_dir=str(suite), jobs=1, results_path=str(serial_path),
            fresh=True,
        )
        parallel = run_benchmarks(
            suite_dir=str(suite), jobs=2, results_path=str(parallel_path),
            fresh=True,
        )
        assert serial.ok and parallel.ok, (serial, parallel)
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        payload = json.loads(serial_path.read_text())
        assert payload == {
            "demo": {"alpha": {"value": 1, "k": 10}, "beta": {"value": 2}},
            "other": {"beta": {"n": 3}},
        }

    def test_history_accumulates_across_runs(self, suite, tmp_path):
        from repro.parallel.bench import run_benchmarks

        results = tmp_path / "results.json"
        results.write_text(json.dumps({"demo": {"old": {"value": 9}}}))
        run_benchmarks(
            suite_dir=str(suite), jobs=2, results_path=str(results)
        )
        payload = json.loads(results.read_text())
        assert payload["demo"]["old"] == {"value": 9}
        assert payload["demo"]["alpha"] == {"value": 1, "k": 10}


class TestMultiPropertyDeterminism:
    def test_parallel_verdicts_match_serial(self):
        flat = flatten(parse_blifmv(BLIFMV))
        pif = parse_pif(PIF)
        serial = check_properties(flat, pif.ctl_props, pif.fairness, jobs=1)
        parallel = check_properties(flat, pif.ctl_props, pif.fairness, jobs=2)
        assert [(v.name, v.holds) for v in serial] == [
            ("can_reach_two", True),
            ("never_stuck", True),
            ("bogus", False),
        ]
        assert [(v.name, v.holds, v.status) for v in parallel] == [
            (v.name, v.holds, v.status) for v in serial
        ]

    def test_shell_mc_jobs_matches_serial_output(self, tmp_path):
        design = tmp_path / "counter.mv"
        design.write_text(BLIFMV)
        props = tmp_path / "props.pif"
        props.write_text(PIF)

        def run(mc_line: str) -> str:
            shell = HsisShell()
            shell.execute(f"read_blif_mv {design}")
            shell.execute(f"read_pif {props}")
            return re.sub(r"\d+\.\d+s", "_s", shell.execute(mc_line))

        assert run("mc --jobs 2") == run("mc")

    def test_shell_mc_rejects_bad_jobs(self, tmp_path):
        from repro.cli import CliError

        design = tmp_path / "counter.mv"
        design.write_text(BLIFMV)
        shell = HsisShell()
        shell.execute(f"read_blif_mv {design}")
        with pytest.raises(CliError):
            shell.execute("mc --jobs 0")
        with pytest.raises(CliError):
            shell.execute("mc --jobs")
