"""One front door from design to verdicts.

The shell, ``hsis check``/``profile``, the job server and the ordering
portfolio read designs through one reader (:mod:`repro.models`) and get
their verdicts from one check loop (:mod:`repro.parallel.check`).  These
tests pin what that buys: unreadable input is one line on stderr and
exit 2, ``--timeout`` holds at ``--jobs 1``, every machine a worker
builds runs under the caller's settings, a serial check encodes its
design once, and a served ``check``/``profile`` answers exactly what
the one-shot command prints.
"""

import asyncio
import json
import multiprocessing
import re
import time

import pytest

from repro.cli import HsisShell, main
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ctl.modelcheck import ModelChecker
from repro.models import design_source, engine_input, get_spec, read_design
from repro.network.fsm import SymbolicFsm
from repro.ordering_portfolio import OrderCache, run_portfolio_check
from repro.parallel import check_properties, check_within
from repro.perf import EngineStats
from repro.pif import parse_pif
from repro.serve import HsisServer, ServeClient
from repro.serve.jobs import run_portfolio_job

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched engine must reach the workers through fork",
)

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

#: Kernel settings no command uses by default.
SETTINGS = EngineConfig(auto_gc=50, cache_limit=512, auto_reorder=100_000)


@pytest.fixture
def counter(tmp_path):
    design = tmp_path / "counter.mv"
    design.write_text(BLIFMV)
    props = tmp_path / "props.pif"
    props.write_text(PIF)
    return str(design), str(props)


@pytest.fixture
def model(counter):
    _, design, _ = read_design(counter[0])
    return engine_input(design)


# ----------------------------------------------------------------------
# The reader
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ref, expected", [
    ("gallery:traffic", ("gallery", "traffic")),
    ("traffic", ("gallery", "traffic")),
    ("gallery:x.v", ("gallery", "x.v")),
    ("dir/x.v", ("verilog", "dir/x.v")),
    ("dir/x.mv", ("blifmv", "dir/x.mv")),
])
def test_design_source_classifies_references(ref, expected):
    assert design_source(ref) == expected


def test_check_reads_a_blifmv_file_of_any_suffix(tmp_path, counter, capsys):
    design = tmp_path / "counter.blif"
    design.write_text(BLIFMV)
    assert design_source(str(design)) == ("blifmv", str(design))
    assert main(["check", str(design), counter[1]]) == 1  # ``bogus`` fails
    out = capsys.readouterr().out
    assert "2 passed, 1 failed" in out, out


def test_every_form_reads_the_same_design(counter):
    from repro.blifmv import write

    _, from_file, pif = read_design(counter[0])
    assert pif is None
    name, from_text, _ = read_design(("blifmv", BLIFMV))
    assert name == "counter"
    assert write(from_file) == write(from_text)
    spec_name, design, bundled = read_design("gallery:ping pong")
    assert (spec_name, design.root) == ("ping pong", "pingpong")
    assert bundled is not None and bundled.ctl_props


def test_engine_input_flattens_under_a_portfolio():
    from repro.blifmv import Elaboration, Model

    design = get_spec("philos_hier").design
    assert isinstance(engine_input(design), Model)
    shared = EngineConfig(shared_shapes=True)
    assert isinstance(engine_input(design, shared), Elaboration)
    raced = EngineConfig(shared_shapes=True, portfolio=2)
    assert isinstance(engine_input(design, raced), Model)


# ----------------------------------------------------------------------
# Unreadable input: one line on stderr, exit 2
# ----------------------------------------------------------------------


BAD_INPUTS = {
    "missing-file": ("nowhere.mv", PIF, "No such file"),
    "blifmv": ("bad.mv", PIF, "bad.mv:2:"),
    "verilog": ("bad.v", PIF, "bad.v:2: expected '@'"),
    "verilog-compile": ("undeclared.v", PIF, "undeclared.v: module m: undeclared"),
    "pif": ("counter.mv", "ctl broken\n", "props.pif:1:"),
    "pif-formula": ("counter.mv", "ctl p :: AG\n",
                    "props.pif:1: unexpected end of formula"),
    "unknown-design": ("nosuchdesign", PIF, "unknown design 'nosuchdesign'"),
}

BAD_TEXT = {
    "bad.mv": ".model broken\n.latch\n.end\n",
    "bad.v": "module broken; reg q;\nalways q <= ;\nendmodule\n",
    "undeclared.v": "module m; wire a; assign a = zz; endmodule\n",
    "counter.mv": BLIFMV,
}


@pytest.mark.parametrize("command", ["check", "profile"])
@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
def test_unreadable_input_is_one_line_and_exit_2(
    tmp_path, monkeypatch, capsys, command, kind
):
    target, pif_text, message = BAD_INPUTS[kind]
    if target in BAD_TEXT:
        (tmp_path / target).write_text(BAD_TEXT[target])
    (tmp_path / "props.pif").write_text(pif_text)
    monkeypatch.chdir(tmp_path)
    argv = (["check", target, "props.pif"] if command == "check"
            else ["profile", target, "--pif", "props.pif"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("error: ") and message in err, err
    assert '"' not in err  # no KeyError repr quotes


# ----------------------------------------------------------------------
# One machine, the caller's settings, an honoured timeout
# ----------------------------------------------------------------------


def test_serial_check_encodes_the_design_once(model):
    pif = parse_pif(PIF)
    stats = EngineStats()
    verdicts = check_properties(model, pif.ctl_props, pif.fairness, stats=stats)
    assert [(v.name, v.holds) for v in verdicts] == [
        ("can_reach_two", True), ("never_stuck", True), ("bogus", False),
    ]
    assert stats.phases["encode"].calls == 1
    assert stats.phases["mc"].calls == 3


def test_a_property_that_raises_gets_its_own_error_verdict(model):
    pif = parse_pif(PIF + "ctl unknown :: AG nosuchnet=1\n")
    verdicts = check_properties(model, pif.ctl_props, pif.fairness)
    assert [v.status for v in verdicts] == ["ok", "ok", "ok", "error"]
    assert verdicts[-1].holds is None and verdicts[-1].reason


def test_profile_exits_1_when_a_property_raises(counter, tmp_path, capsys):
    props = tmp_path / "unknown.pif"
    props.write_text("ctl unknown :: AG nosuchnet=1\n")
    assert main(["profile", counter[0], "--pif", str(props)]) == 1
    captured = capsys.readouterr()
    assert "mc unknown: ERROR (error)" in captured.out
    assert "Traceback" not in captured.err


def _slow_check(self, formula):
    time.sleep(5.0)
    raise AssertionError("a timed-out check kept running")


@needs_fork
@pytest.mark.parametrize("properties", [1, 3])
def test_timeout_is_honoured_at_one_job(model, monkeypatch, properties):
    """Each property's worker is reaped at its deadline, also at
    ``jobs=1`` and for a single property."""
    monkeypatch.setattr(ModelChecker, "check", _slow_check)
    pif = parse_pif(PIF)
    start = time.monotonic()
    verdicts = check_properties(
        model, pif.ctl_props[:properties], pif.fairness,
        timeout=0.3, retries=0,
    )
    assert [v.status for v in verdicts] == ["timeout"] * properties
    assert all(v.holds is None for v in verdicts)
    assert time.monotonic() - start < 4.0 * properties


@needs_fork
def test_whole_list_deadline_is_one_task(model, monkeypatch):
    """``check_within`` runs the in-process check as one pool task: an
    error keeps its own verdict, and an overrun times out every
    property at once."""
    pif = parse_pif(PIF + "ctl unknown :: AG nosuchnet=1\n")
    verdicts = check_within(model, pif.ctl_props, pif.fairness, deadline=60.0)
    assert [(v.name, v.status) for v in verdicts] == [
        (v.name, v.status)
        for v in check_properties(model, pif.ctl_props, pif.fairness)
    ]
    monkeypatch.setattr(ModelChecker, "check", _slow_check)
    start = time.monotonic()
    verdicts = check_within(model, pif.ctl_props, pif.fairness, deadline=0.3)
    assert [v.status for v in verdicts] == ["timeout"] * 4
    assert time.monotonic() - start < 4.0


@needs_fork
def test_check_timeout_flag_at_one_job(counter, monkeypatch, capsys):
    monkeypatch.setattr(ModelChecker, "check", _slow_check)
    assert main(["check", *counter, "--timeout", "0.3"]) == 1
    out = capsys.readouterr().out
    assert out.count("ERROR (timeout)") == 3, out
    assert "3 errored (jobs=1)" in out


def _config_spy(monkeypatch, log):
    """Record the config of every machine built, in any process."""
    real = SymbolicFsm.__init__

    def spy(self, model, order_method="affinity", config=DEFAULT_CONFIG,
            **kwargs):
        with open(log, "a") as handle:
            handle.write(repr(config) + "\n")
        real(self, model, order_method, config, **kwargs)

    monkeypatch.setattr(SymbolicFsm, "__init__", spy)

    def seen():
        return log.read_text().splitlines()

    return seen


@needs_fork
def test_shell_mc_jobs_workers_use_the_shell_settings(
    counter, tmp_path, monkeypatch
):
    seen = _config_spy(monkeypatch, tmp_path / "configs.log")
    shell = HsisShell(config=SETTINGS)
    shell.execute(f"read_blif_mv {counter[0]}")
    shell.execute(f"read_pif {counter[1]}")
    out = shell.execute("mc --jobs 2")
    assert out.count("passed") == 2 and out.count("FAILED") == 1
    assert seen() == [repr(SETTINGS)] * 4  # the shell's machine + 3 workers


@needs_fork
def test_portfolio_machines_use_the_caller_settings(
    model, tmp_path, monkeypatch
):
    seen = _config_spy(monkeypatch, tmp_path / "configs.log")
    pif = parse_pif(PIF)
    cache = OrderCache(str(tmp_path / "orders"))
    for source in ("race", "cache"):
        verdicts, provenance = run_portfolio_check(
            model, pif.ctl_props, pif.fairness, k=2, cache=cache,
            config=SETTINGS,
        )
        assert provenance["source"] == source
        assert [v.holds for v in verdicts] == [True, True, False]
    assert seen() and set(seen()) == {repr(SETTINGS)}


@needs_fork
def test_served_portfolio_job_uses_its_knobs(tmp_path, monkeypatch):
    seen = _config_spy(monkeypatch, tmp_path / "configs.log")
    knobs = {"portfolio": 2, "shared_shapes": True, "auto_gc": 50,
             "cache_limit": 512, "auto_reorder": 100_000}
    result = run_portfolio_job(
        "blifmv", BLIFMV, PIF, knobs, orders_dir=str(tmp_path / "orders"),
    )
    assert result.value["passed"] == 2
    assert seen() and set(seen()) == {repr(EngineConfig.of(knobs))}


# ----------------------------------------------------------------------
# Served answers equal the one-shot commands
# ----------------------------------------------------------------------


def _serve(tmp_path, kind, **submission):
    async def body():
        server = HsisServer(host="127.0.0.1", port=0, jobs=1, timeout=120.0,
                            cache_dir=str(tmp_path / "cache"))
        await server.start()
        try:
            async with ServeClient(port=server.port) as client:
                return await client.submit(kind, **submission)
        finally:
            await server.stop()

    result = asyncio.run(body())
    assert result["ok"], result["error"]
    return result["result"]


def test_served_check_equals_check_results(tmp_path):
    spec = get_spec("elevator")
    props = tmp_path / "elevator.pif"
    props.write_text(spec.pif_text)
    results = tmp_path / "results.json"
    main(["check", "gallery:elevator", str(props), "--results", str(results)])
    local = json.loads(results.read_text())
    served = _serve(tmp_path, "check", design={"gallery": "elevator"})
    assert [(v["name"], v["formula"], v["holds"]) for v in served["verdicts"]] \
        == [(v["name"], v["formula"], v["holds"]) for v in local["properties"]]
    assert served["passed"] == local["passed"]
    assert served["properties"] == len(local["properties"])


@pytest.mark.parametrize("name, flags", [
    ("traffic", []),
    ("railroad", ["--partitioned"]),
])
def test_served_profile_equals_profile(tmp_path, capsys, name, flags):
    assert main(["profile", f"gallery:{name}", *flags]) == 0
    out = capsys.readouterr().out
    header = re.search(
        rf"profile {name}: (\d+) states reached in (\d+) iterations", out
    )
    local_verdicts = re.findall(r"^mc (\S+): (passed|FAILED) ", out, re.M)
    served = _serve(tmp_path, "profile", design={"gallery": name},
                    knobs={"partitioned": bool(flags)})
    assert (served["states"], served["iterations"]) == (
        int(header.group(1)), int(header.group(2)))
    assert [(v["name"], v["holds"]) for v in served["verdicts"]] == [
        (prop, verdict == "passed") for prop, verdict in local_verdicts
    ]
    assert local_verdicts, "the gallery design lost its properties"
