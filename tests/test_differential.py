"""The differential fuzz harness: fixed-seed sweep + corpus replay.

The sweep here is the fast in-tree version of ``hsis fuzz``: a batch of
deterministic seeds cross-checking the symbolic engines against the
explicit oracle.  Every repro ever recorded under ``tests/corpus/``
must replay clean — each file pins a divergence that was found by
fuzzing and then fixed.
"""

import json
from pathlib import Path

import repro.oracle.diff as diff
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.oracle import run_sweep, run_trial
from repro.oracle.diff import (
    Divergence,
    _case_rng,
    case_from_payload,
    case_to_payload,
    replay_corpus_dir,
    replay_corpus_entry,
    shrink_case,
    write_corpus_entry,
)
from repro.oracle.fuzz import gen_case
from repro.perf import EngineStats

CORPUS = Path(__file__).parent / "corpus"


class TestSweep:
    def test_fixed_seed_sweep_is_clean(self):
        sweep = run_sweep(25, seed0=0)
        assert sweep.ok, sweep.summary()
        assert len(sweep.reports) == 25
        assert sweep.seconds > 0
        assert not sweep.corpus_written

    def test_trials_are_deterministic(self):
        first = run_trial(5, keep_case=True)
        second = run_trial(5, keep_case=True)
        assert first.ok and second.ok
        assert case_to_payload(first.case) == case_to_payload(second.case)

    def test_trial_populates_stats(self):
        stats = EngineStats()
        report = run_trial(3, stats=stats)
        assert report.ok
        for phase in ("fuzz.bddops", "fuzz.gen", "fuzz.oracle",
                      "fuzz.reach", "fuzz.mc", "fuzz.lc"):
            assert stats.phase_seconds(phase) >= 0
            assert stats.phases[phase].calls == 1
        # Per-trial engine collectors are merged into the sweep stats.
        assert stats.phases["encode"].calls == 2  # reach fsm + lc fsm
        assert "build_tr" in stats.phases


class TestCorpus:
    def test_corpus_is_not_empty(self):
        assert list(CORPUS.glob("*.json")), "expected checked-in repros"

    def test_corpus_replays_clean(self):
        results = replay_corpus_dir(CORPUS)
        for name, divergences in results.items():
            assert not divergences, f"{name}: {[str(d) for d in divergences]}"

    def test_corpus_entries_are_well_formed(self):
        for path in CORPUS.glob("*.json"):
            entry = json.loads(path.read_text())
            assert entry["kind"] in ("bddops", "case")
            assert isinstance(entry["seed"], int)
            assert entry["areas"]
            assert entry["note"]
            if entry["kind"] == "case":
                payload = entry["payload"]
                assert payload["model"].startswith(".model")
                assert "invariant" in payload


class TestCorpusConfig:
    """A corpus entry records the non-default settings it was found
    under, and replay runs under them."""

    def test_default_entries_carry_no_config(self, tmp_path):
        # Rewriting a checked-in repro reproduces its bytes exactly.
        for path in CORPUS.glob("*.json"):
            entry = json.loads(path.read_text())
            assert "config" not in entry
            case = None
            if entry["kind"] == "case":
                case = case_from_payload(entry["payload"])
            again = write_corpus_entry(tmp_path, entry["seed"],
                                       set(entry["areas"]), case,
                                       entry["note"])
            assert Path(again).read_bytes() == path.read_bytes()

    def test_shapes_repro_replays_under_shared_shapes(
        self, tmp_path, monkeypatch
    ):
        def diverge(case, seed, stats, config=DEFAULT_CONFIG):
            return [Divergence("shapes", seed, "injected for testing")]

        monkeypatch.setattr(diff, "_shared_shape_replica_check", diverge)
        sweep = run_sweep(1, seed0=3, corpus_dir=str(tmp_path), shrink=False,
                          config=EngineConfig(shared_shapes=True))
        [path] = sweep.corpus_written
        assert Path(path).name == "seed000003_shapes.json"
        entry = json.loads(Path(path).read_text())
        assert entry["config"] == {"shared_shapes": True}
        assert [str(d) for d in replay_corpus_entry(entry)] == [
            "[shapes] seed=3: injected for testing"
        ]

    def test_bddops_repro_replays_under_auto_reorder(
        self, tmp_path, monkeypatch
    ):
        def fake_bddops_trial(rng, seed, config=DEFAULT_CONFIG):
            if config.auto_reorder is None:
                return []
            return [Divergence("bddops", seed, "diverges under sifting")]

        monkeypatch.setattr(diff, "bddops_trial", fake_bddops_trial)
        sweep = run_sweep(1, seed0=0, corpus_dir=str(tmp_path),
                          config=EngineConfig(auto_reorder=20))
        [path] = sweep.corpus_written
        entry = json.loads(Path(path).read_text())
        assert entry["kind"] == "bddops"
        assert entry["config"] == {"auto_reorder": 20}
        assert [d.area for d in replay_corpus_entry(entry)] == ["bddops"]


class TestShrinking:
    def test_shrink_output_still_valid_and_smaller(self):
        case = gen_case(_case_rng(2))
        shrunk = shrink_case(case, lambda c: True)
        # An always-failing predicate lets every mutation through, so the
        # result is the fixpoint of the shrinkers: no fairness left and a
        # payload no bigger than the original.
        assert shrunk["fairness"] == []
        original = json.dumps(case_to_payload(case))
        reduced = json.dumps(case_to_payload(shrunk))
        assert len(reduced) <= len(original)

    def test_shrink_respects_predicate(self):
        case = gen_case(_case_rng(2))
        keep = lambda c: len(c["fairness"]) == len(case["fairness"])
        shrunk = shrink_case(case, keep)
        assert len(shrunk["fairness"]) == len(case["fairness"])

    def test_row_entry_mutation_replaces_the_row(self):
        """Rows are frozen (a flat model shares its design's rows), so an
        entry mutation puts a new row in the table, leaving the old one."""
        from repro.blifmv import ANY, Row, Table
        from repro.oracle.fuzz import _set_row_entry

        shared = Row(inputs=(ANY, "1"), outputs=(ANY,))
        table = Table(inputs=["a", "b"], outputs=["c"], rows=[shared])
        _set_row_entry(table, 0, 0, "0", output=False)
        _set_row_entry(table, 0, 0, "1", output=True)
        assert table.rows == [Row(inputs=("0", "1"), outputs=("1",))]
        assert shared == Row(inputs=(ANY, "1"), outputs=(ANY,))
