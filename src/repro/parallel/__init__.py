"""Process-pool runtime for fanning independent verification jobs.

HSIS-style evaluation is dominated by *independent* symbolic jobs —
per-seed differential trials, per-design benchmarks, per-property CTL
checks.  This package runs them across cores without changing a single
answer:

* :mod:`repro.parallel.pool` — :class:`WorkerPool`: per-task timeouts,
  bounded retry with backoff, crash isolation (a dead or hung worker is
  reaped and its task retried or reported — never lost, never able to
  wedge the sweep).
* :mod:`repro.parallel.tasks` — picklable :class:`Task` descriptors and
  :class:`ResultEnvelope` results carrying verdict, error trace, and a
  per-worker :class:`~repro.perf.EngineStats`.
* :mod:`repro.parallel.sweep` — ``hsis fuzz --jobs N`` seed-range
  sharding (report identical to the serial sweep).
* :mod:`repro.parallel.check` — ``hsis check`` / ``mc --jobs N``
  multi-property model checking.
* :mod:`repro.parallel.bench` — ``benchmarks/run.py`` concurrent bench
  matrix with atomic ``results.json`` accumulation.
* :mod:`repro.parallel.atomic` — temp-file + ``os.replace`` JSON writes.

Semantics are pinned down by ``tests/test_parallel_determinism.py``,
``tests/test_parallel_faults.py`` and ``tests/test_parallel_stress.py``;
see ``docs/parallel.md``.
"""

import importlib

# Public names by submodule; each resolves on first access (PEP 562), so
# importing the stdlib-only ``atomic`` does not load the engine behind
# ``check``, ``pool`` and ``sweep``.
_SOURCES = {
    "atomic": "atomic_write_json",
    "check": "PropertyVerdict check_properties",
    "pool": "PoolError WorkerPool default_jobs",
    "sweep": "run_sweep_parallel",
    "tasks": (
        "STATUS_CANCELLED STATUS_CRASHED STATUS_ERROR STATUS_OK STATUS_TIMEOUT "
        "ResultEnvelope Task TaskResult shard_range"
    ),
}
_EXPORTS = {
    name: module for module, names in _SOURCES.items() for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
