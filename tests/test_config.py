"""The one engine configuration: validation, the CLI surface it
generates, and the serve cache keys it pins."""

import argparse

import pytest

from repro import cli
from repro.bdd import BDD
from repro.config import DEFAULT_CONFIG, FIELDS, EngineConfig
from repro.serve import cache_key, canonical_knobs
from repro.serve.protocol import ProtocolError


class TestValidation:
    def test_knob_validation(self):
        for field, value in [
            ("auto_gc", 0),
            ("cache_limit", -1),
            ("auto_reorder", 0),
            ("auto_gc", True),
            ("cache_limit", "64"),
            ("shared_shapes", 1),
            ("shared_shapes", None),
        ]:
            with pytest.raises(ValueError, match=field):
                EngineConfig(**{field: value})

    def test_four_settings_with_their_defaults(self):
        assert FIELDS == ("auto_gc", "cache_limit", "auto_reorder",
                          "shared_shapes")
        assert DEFAULT_CONFIG == EngineConfig()
        assert DEFAULT_CONFIG.overrides() == {}
        assert EngineConfig(shared_shapes=True).overrides() == {
            "shared_shapes": True}

    def test_of_picks_the_settings_out_of_a_mapping(self):
        config = EngineConfig.of({"trials": 3, "auto_reorder": 20,
                                  "shared_shapes": True})
        assert config == EngineConfig(auto_reorder=20, shared_shapes=True)
        assert EngineConfig.of(config.overrides()) == config

    def test_bdd_copies_the_kernel_settings(self):
        assert BDD().config is DEFAULT_CONFIG
        bdd = BDD(EngineConfig(auto_gc=7, cache_limit=100, auto_reorder=9))
        assert (bdd.auto_gc, bdd.auto_reorder) == (7, 9)
        assert bdd.stats()["cache_capacity"] == 64  # rounded down to 2**k

    def test_serve_rejects_out_of_range_settings(self):
        with pytest.raises(ProtocolError, match="auto_reorder"):
            canonical_knobs("profile", {"auto_reorder": 0})
        with pytest.raises(ProtocolError, match="must be an integer"):
            canonical_knobs("check", {"auto_gc": "5"})
        with pytest.raises(ProtocolError, match="trials"):
            canonical_knobs("fuzz", {"trials": 0})
        assert canonical_knobs("fuzz", {"seed": -3})["seed"] == -3


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class _Parsed(Exception):
    pass


def _parse(monkeypatch, main, argv):
    """Run ``main(argv)`` up to its argument parsing; returns the
    top-level parser and the parsed options."""
    real = argparse.ArgumentParser.parse_args
    box = {}

    def spy(self, args=None, namespace=None):
        box["parser"], box["opts"] = self, real(self, args, namespace)
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    with pytest.raises(_Parsed):
        main(argv)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", real)
    return box["parser"], box["opts"]


def _option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


COMMON = {"-h", "--help"}

#: Each command's options, as before the settings moved into one table,
#: plus ``hsis fuzz --no-shared-shapes`` and ``hsis fuzz --auto-gc``.
LOCAL = {
    "hsis": (cli.main, [], {
        "--stats", "--auto-gc", "--cache-limit", "--auto-reorder", "--trace",
    }),
    "fuzz": (cli._fuzz_main, [], {
        "--trials", "--seed", "--corpus", "--no-shrink", "--stats", "--jobs",
        "--auto-gc", "--auto-reorder", "--shared-shapes",
        "--no-shared-shapes", "--trace",
    }),
    "check": (cli._check_main, ["d.mv", "p.pif"], {
        "--jobs", "--results", "--timeout", "--shared-shapes",
        "--no-shared-shapes", "--stats", "--trace",
    }),
    "profile": (cli._profile_main, ["d.mv"], {
        "--pif", "--method", "--no-mc", "--auto-reorder",
        "--shared-shapes", "--no-shared-shapes", "--trace",
    }),
}


@pytest.mark.parametrize("name", sorted(LOCAL))
def test_command_option_strings(monkeypatch, name):
    main, args, options = LOCAL[name]
    parser, _ = _parse(monkeypatch, main, args)
    assert _option_strings(parser) == options | COMMON


@pytest.mark.parametrize("name, argv, expected", [
    ("hsis", ["--auto-gc", "5", "--cache-limit", "64", "--auto-reorder", "9"],
     EngineConfig(auto_gc=5, cache_limit=64, auto_reorder=9)),
    ("hsis", [], EngineConfig()),
    ("fuzz", ["--auto-reorder", "20", "--shared-shapes"],
     EngineConfig(auto_reorder=20, shared_shapes=True)),
    ("fuzz", ["--no-shared-shapes"], EngineConfig()),
    ("check", ["--no-shared-shapes"], EngineConfig()),
    ("check", [], EngineConfig(shared_shapes=True)),
    ("profile", ["--auto-reorder", "30", "--no-shared-shapes"],
     EngineConfig(auto_reorder=30)),
    ("profile", [], EngineConfig(shared_shapes=True)),
    ("fuzz", ["--auto-gc", "1"], EngineConfig(auto_gc=1)),
])
def test_command_builds_its_config(monkeypatch, name, argv, expected):
    main, args, _ = LOCAL[name]
    _, opts = _parse(monkeypatch, main, args + argv)
    assert EngineConfig.of(vars(opts)) == expected


def test_setting_flags_are_validated_by_the_config(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        _parse(monkeypatch, cli._fuzz_main, ["--auto-gc", "0"])
    assert "auto_gc must be a positive integer" in capsys.readouterr().err


class _FakeClient:
    """Stands in for ``ServeClient``; records each submission."""

    submitted = []

    def __init__(self, host, port):
        pass

    async def connect(self):
        pass

    async def submit(self, kind, design=None, pif=None, knobs=None, **_):
        self.submitted.append((kind, knobs))
        return {"ok": True}

    async def close(self):
        pass


CLIENT = {
    "check": ({"--auto-gc", "--cache-limit", "--auto-reorder",
               "--shared-shapes", "--no-shared-shapes", "--timeout",
               "--stream"},
              ["gallery:traffic", "--auto-gc", "5", "--cache-limit", "64",
               "--auto-reorder", "9", "--no-shared-shapes"],
              {"auto_gc": 5, "cache_limit": 64, "auto_reorder": 9,
               "shared_shapes": False}),
    "fuzz": ({"--trials", "--seed", "--auto-reorder", "--shared-shapes",
              "--no-shared-shapes", "--timeout", "--stream"},
             ["--trials", "3", "--seed", "0", "--auto-reorder", "20",
              "--shared-shapes"],
             {"trials": 3, "seed": 0, "auto_reorder": 20,
              "shared_shapes": True}),
    "profile": ({"--method", "--auto-reorder",
                 "--shared-shapes", "--no-shared-shapes", "--timeout",
                 "--stream"},
                ["gallery:traffic", "--method", "linear",
                 "--auto-reorder", "30", "--shared-shapes"],
                {"method": "linear", "auto_reorder": 30,
                 "shared_shapes": True}),
}


@pytest.mark.parametrize("verb", sorted(CLIENT))
def test_client_option_strings_and_knobs(monkeypatch, verb):
    import repro.serve

    options, argv, knobs = CLIENT[verb]
    design = argv[:1] if verb != "fuzz" else []
    parser, _ = _parse(monkeypatch, cli._client_main,
                       ["--port", "1", verb] + design)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert _option_strings(sub.choices[verb]) == options | COMMON

    monkeypatch.setattr(repro.serve, "ServeClient", _FakeClient)
    monkeypatch.setattr(_FakeClient, "submitted", [])
    assert cli._client_main(["--port", "1", verb] + design) == 0
    assert cli._client_main(["--port", "1", verb] + argv) == 0
    # Unset settings are left to the server's defaults.
    assert _FakeClient.submitted == [(verb, {}), (verb, knobs)]
    # The knobs the client sends are the ones the server accepts.
    canonical_knobs(verb, knobs)


def test_shell_fuzz_passes_the_whole_config(monkeypatch):
    import repro.oracle

    seen = {}

    class _Sweep:
        def summary(self):
            return "ok"

    def fake_run_sweep(trials, seed0=0, config=DEFAULT_CONFIG):
        seen["config"] = config
        return _Sweep()

    monkeypatch.setattr(repro.oracle, "run_sweep", fake_run_sweep)
    config = EngineConfig(auto_gc=50, cache_limit=512, auto_reorder=40)
    assert cli.HsisShell(config=config).execute("fuzz 1 0") == "ok"
    assert seen["config"] is config


# ----------------------------------------------------------------------
# Serve cache keys
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind, design, pif, knobs, digest", [
    ("check", "d", "p", {},
     "97c33807b614fdb521a2383d18dbd18f3672f897c1a7e3aeeda622aa6f020d5d"),
    ("check", "d", "p", {"auto_reorder": 5000, "shared_shapes": False},
     "467508066e46d9f259b17de153de583c0a1691fe9243d8b2aab4096a77f35028"),
    ("fuzz", None, None, {},
     "3f4ffcb603107c823eef5fa0f6d96efc666d451727d83bf6de7e533446b33929"),
    ("profile", "d", None, {"method": "linear"},
     "c767af820e7245aed1aa11639e73f9b9f33156a1fb765bed17463b65972489c5"),
])
def test_cache_keys_are_pinned(kind, design, pif, knobs, digest):
    assert cache_key(kind, design, pif, canonical_knobs(kind, knobs)) == digest
