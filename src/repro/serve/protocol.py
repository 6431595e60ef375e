"""Wire protocol for ``hsis serve``: newline-delimited JSON.

Every request and every response is one JSON object on one line
(UTF-8, ``\\n``-terminated).  A connection may carry any number of
requests; responses to a ``submit`` are interleaved per job (the
``job`` field ties them together), so a client can pipeline many
submissions over one socket.

Client -> server operations (the ``op`` field):

* ``submit`` — run a job.  Fields: ``kind`` (``check`` | ``fuzz`` |
  ``profile``), ``design`` (``{"gallery": name}`` / ``{"verilog":
  text}`` / ``{"blifmv": text}``; absent for ``fuzz``), ``pif``
  (property text; optional — gallery designs bring their own),
  ``knobs`` (kind-specific, see :data:`KNOB_DEFAULTS`), ``stream``
  (bool: relay tracer events as ``event`` lines), ``timeout``
  (seconds, clamped by the server's quota), ``id`` (opaque client
  tag, echoed back).
* ``status`` — queue/cache/stats snapshot; with ``job`` set, one
  job's detail.
* ``cancel`` — cancel a queued or running job by ``job`` id.
* ``ping`` — liveness check.

Server -> client lines: ``submitted`` (ack carrying the ``job`` id,
the cache ``key``, and ``coalesced``), zero or more ``event`` lines
(when streaming), and exactly one ``result`` per submission::

    {"ok": true, "op": "result", "job": "j1", "key": "...",
     "cached": false, "status": "ok", "result": {...},
     "error": null, "seconds": 1.2, "attempts": 1}

``status`` is an envelope status from :mod:`repro.parallel.tasks`
(``ok`` / ``error`` / ``timeout`` / ``crashed`` / ``cancelled``).
Malformed input never kills the connection silently: the server
answers ``{"ok": false, "op": "error", "error": ...}`` (and closes it
only when the line was oversized, since framing is lost).

The cache key is :func:`repro.serve.cache.cache_key` over the
*resolved* design text — a gallery name and its verbatim Verilog hash
identically — plus the property text and the canonicalized knobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.config import EngineConfig

#: Hard cap on one request/response line.  Submissions carry whole
#: designs inline, so this is generous; anything larger is rejected
#: and the connection closed (framing can no longer be trusted).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Cap on the design / property text inside one submission.
MAX_TEXT_BYTES = 2 * 1024 * 1024

PROTOCOL_VERSION = 1

KINDS = ("check", "fuzz", "profile")


def _settings(*names: str, **overrides: Any) -> Dict[str, Any]:
    """Defaults of the engine settings ``names`` (see EngineConfig)."""
    config = EngineConfig(**overrides)
    return {name: getattr(config, name) for name in names}


#: Result-affecting knobs per job kind, with their defaults.  The
#: canonical knob dict always contains every key, so ``{"trials": 25}``
#: and ``{"trials": 25, "seed": 0}`` hash to the same cache key, while
#: any knob that changes the computation changes the key.  The engine
#: settings among them are :class:`~repro.config.EngineConfig` fields.
KNOB_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "check": _settings("auto_gc", "cache_limit", "auto_reorder", "portfolio",
                       "shared_shapes", shared_shapes=True),
    "fuzz": {"trials": 25, "seed": 0,
             **_settings("auto_reorder", "shared_shapes")},
    "profile": {"method": "greedy", "partitioned": False,
                **_settings("auto_reorder", "shared_shapes",
                            shared_shapes=True)},
}

_BOOL_KNOBS = {"partitioned", "shared_shapes"}
_STR_KNOBS = {"method"}


class ProtocolError(Exception):
    """A request the server refuses: bad JSON, bad fields, too big."""


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line) -> Dict[str, Any]:
    """Parse one line into a message dict, or raise ProtocolError."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def canonical_knobs(kind: str, knobs: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate and normalize a submission's knobs for ``kind``.

    Unknown knobs are rejected (a typo must not silently fork the cache
    key); known knobs are type-checked and defaults filled in, so the
    returned dict is total and deterministic.  The engine settings'
    legal values are :class:`~repro.config.EngineConfig`'s.
    """
    defaults = KNOB_DEFAULTS[kind]
    knobs = dict(knobs or {})
    unknown = sorted(set(knobs) - set(defaults))
    if unknown:
        raise ProtocolError(
            f"unknown knob(s) for {kind!r}: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(defaults))})"
        )
    out = dict(defaults)
    for name, value in knobs.items():
        if value is None:
            continue
        if name in _BOOL_KNOBS:
            if not isinstance(value, bool):
                raise ProtocolError(f"knob {name!r} must be a boolean")
        elif name in _STR_KNOBS:
            if not isinstance(value, str):
                raise ProtocolError(f"knob {name!r} must be a string")
        else:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"knob {name!r} must be an integer")
            if name == "trials" and value <= 0:
                raise ProtocolError(f"knob {name!r} must be positive")
        out[name] = value
    try:
        EngineConfig.of(out)
    except ValueError as exc:
        raise ProtocolError(f"bad knob: {exc}")
    return out


@dataclass
class SubmitRequest:
    """A validated, fully resolved submission."""

    kind: str
    design_kind: Optional[str]  # "verilog" | "blifmv" | None (fuzz)
    design_text: Optional[str]
    pif_text: Optional[str]
    knobs: Dict[str, Any] = field(default_factory=dict)
    stream: bool = False
    timeout: Optional[float] = None
    client_id: Optional[str] = None


def _text_field(container: Dict[str, Any], name: str) -> str:
    value = container[name]
    if not isinstance(value, str):
        raise ProtocolError(f"{name!r} must be a string")
    if len(value.encode("utf-8", "ignore")) > MAX_TEXT_BYTES:
        raise ProtocolError(
            f"{name!r} exceeds the {MAX_TEXT_BYTES} byte limit"
        )
    return value


def _resolve_design(kind: str, message: Dict[str, Any]):
    """Resolve the ``design``/``pif`` fields to concrete text.

    A gallery reference is expanded to its Verilog (and bundled PIF, if
    the submission carries none) here, so the cache key sees the same
    bytes whether the client named the design or inlined it.
    """
    design = message.get("design")
    pif_text = None
    if "pif" in message and message["pif"] is not None:
        pif_text = _text_field(message, "pif")
    if kind == "fuzz":
        if design is not None:
            raise ProtocolError("fuzz jobs take no design")
        return None, None, pif_text
    if not isinstance(design, dict) or len(design) != 1:
        raise ProtocolError(
            f"{kind} jobs need a design: one of "
            '{"gallery": name}, {"verilog": text}, {"blifmv": text}'
        )
    ((form, payload),) = design.items()
    if form == "gallery":
        from repro.models import get_spec

        if not isinstance(payload, str):
            raise ProtocolError("gallery design name must be a string")
        try:
            spec = get_spec(payload)
        except KeyError as exc:
            raise ProtocolError(f"unknown gallery design: {exc}")
        return "verilog", spec.verilog, (
            pif_text if pif_text is not None else spec.pif_text
        )
    if form in ("verilog", "blifmv"):
        return form, _text_field(design, form), pif_text
    raise ProtocolError(f"unknown design form {form!r}")


def parse_submit(message: Dict[str, Any]) -> SubmitRequest:
    """Validate a ``submit`` message into a :class:`SubmitRequest`."""
    kind = message.get("kind")
    if kind not in KINDS:
        raise ProtocolError(
            f"kind must be one of {', '.join(KINDS)} (got {kind!r})"
        )
    knobs = message.get("knobs")
    if knobs is not None and not isinstance(knobs, dict):
        raise ProtocolError("knobs must be an object")
    design_kind, design_text, pif_text = _resolve_design(kind, message)
    if kind in ("check",) and not pif_text:
        raise ProtocolError("check jobs need properties (pif)")
    timeout = message.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ProtocolError("timeout must be a number of seconds")
        if timeout <= 0:
            raise ProtocolError("timeout must be positive")
        timeout = float(timeout)
    client_id = message.get("id")
    if client_id is not None and not isinstance(client_id, str):
        raise ProtocolError("id must be a string")
    return SubmitRequest(
        kind=kind,
        design_kind=design_kind,
        design_text=design_text,
        pif_text=pif_text,
        knobs=canonical_knobs(kind, knobs),
        stream=bool(message.get("stream", False)),
        timeout=timeout,
        client_id=client_id,
    )
