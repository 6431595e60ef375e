"""One engine configuration for every front end.

HSIS puts one BDD engine behind the shell, model checking, language
containment, the fuzz harness and the job server.  :class:`EngineConfig`
is the one place that says which engine settings exist, what they
default to and which values are legal; every layer passes it whole
(``BDD(config)``, ``SymbolicFsm(model, config=config)``,
``run_sweep(..., config=config)``) instead of threading loose keyword
arguments.  :data:`FLAGS` spells each setting as a command-line option
and :func:`add_flags` registers a command's subset of them, so the
shell, ``hsis fuzz``/``check``/``profile`` and ``hsis client`` share one
set of option definitions.

This module depends on the standard library only, so the kernel can
import it without pulling in any engine layer; ``argparse`` is imported
only by the helpers that build options.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Sequence


@dataclass(frozen=True)
class EngineConfig:
    """The engine settings; ``None`` leaves an integer setting off.

    * ``auto_gc`` — collect dead nodes at the next safe point once this
      many nodes were created since the last collection.
    * ``cache_limit`` — bound the computed cache to this many rows.
    * ``auto_reorder`` — arm dynamic sifting past this many live nodes.
    * ``shared_shapes`` — encode each subcircuit shape once and build
      its other instances by variable substitution.

    The kernel reads the first three; ``shared_shapes`` steers the
    front ends that build the engine.
    """

    auto_gc: Optional[int] = None
    cache_limit: Optional[int] = None
    auto_reorder: Optional[int] = None
    shared_shapes: bool = False

    def __post_init__(self) -> None:
        for name in ("auto_gc", "cache_limit", "auto_reorder"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ValueError(
                    f"{name} must be a positive integer or None (got {value!r})"
                )
        if not isinstance(self.shared_shapes, bool):
            raise ValueError(
                f"shared_shapes must be a bool (got {self.shared_shapes!r})"
            )

    @classmethod
    def of(cls, mapping: Mapping[str, Any]) -> "EngineConfig":
        """The config named by the setting keys of ``mapping`` (a knob
        dict, a corpus entry's ``config`` or ``vars()`` of parsed
        options); other keys are ignored."""
        return cls(**{name: mapping[name] for name in FIELDS if name in mapping})

    def overrides(self) -> Dict[str, Any]:
        """The settings that differ from their defaults."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }


#: The setting names, in declaration order.
FIELDS = tuple(f.name for f in fields(EngineConfig))

#: The all-defaults config, shared so that building a manager with no
#: explicit settings allocates nothing.
DEFAULT_CONFIG = EngineConfig()


def _setting_type(name: str):
    """argparse ``type`` for an integer setting, validated by
    :class:`EngineConfig` itself."""

    def parse(text: str) -> int:
        import argparse

        try:
            return getattr(EngineConfig(**{name: int(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


#: Command-line spelling of each setting: (flag, type, metavar, help).
FLAGS: Dict[str, tuple] = {
    "auto_gc": (
        "--auto-gc", int, "N",
        "auto-collect dead BDD nodes every N allocations",
    ),
    "cache_limit": (
        "--cache-limit", int, "N",
        "bound the BDD computed cache to N entries",
    ),
    "auto_reorder": (
        "--auto-reorder", int, "N",
        "arm dynamic variable reordering (sifting at engine safe points) "
        "once the BDD table exceeds N live nodes",
    ),
    "shared_shapes": (
        "--shared-shapes", bool, None,
        "encode each distinct subcircuit shape once and instantiate "
        "replicas by variable substitution; fuzz also diffs a "
        "two-instance replica of every generated design "
        "(see docs/hierarchy.md)",
    ),
}


def add_flags(parser, names: Sequence[str], **defaults: Any) -> None:
    """Register the options of the settings ``names`` on the argparse
    ``parser``.

    ``defaults`` overrides a setting's default for this command (``hsis
    check`` turns ``shared_shapes`` on; ``hsis client`` leaves every
    setting ``None``, meaning "the server's default").  Boolean settings
    take ``--flag``/``--no-flag``.
    """
    import argparse

    for name in names:
        flag, kind, metavar, help_text = FLAGS[name]
        default = defaults.get(name, getattr(DEFAULT_CONFIG, name))
        if kind is bool:
            if default is not None:  # the per-command default differs
                help_text += f" (default: {'on' if default else 'off'})"
            parser.add_argument(
                flag, dest=name, action=argparse.BooleanOptionalAction,
                default=default, help=help_text,
            )
        else:
            parser.add_argument(
                flag, dest=name, type=_setting_type(name), default=default,
                metavar=metavar, help=help_text,
            )
