"""The Table-1 benchmark designs, and the one design reader.

Each module exports ``verilog(**params)``, ``pif(**params)`` and
``spec(**params)``; :func:`get_spec` builds a design by its Table-1 name.
``TABLE1`` lists the names in the paper's row order.  :func:`read_design`
and :func:`engine_input` are the front door of Figure 1 for the shell,
``hsis check``/``profile``/``client`` and the server's jobs.
"""

import os
from typing import Optional, Tuple

from repro.blifmv import BlifMvError, Design, elaborate, flatten, parse, parse_file
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.models import dcnew, gallery, gigamax, hier, mdlc, philos, pingpong, scheduler
from repro.models.base import DesignSpec, make_spec
from repro.models.gallery import GALLERY
from repro.pif import PifError, PifFile
from repro.verilog import VerilogError, compile_verilog

_BUILDERS = {
    "philos": philos.spec,
    "ping pong": pingpong.spec,
    "gigamax": gigamax.spec,
    "scheduler": scheduler.spec,
    "dcnew": dcnew.spec,
    "2mdlc": mdlc.spec,
    # hierarchical variants: N replicas of one module shape each
    # (the shared-shape encoder's showcase; see docs/hierarchy.md)
    "philos_hier": hier.philos_spec,
    "scheduler_hier": hier.scheduler_spec,
    "gigamax_hier": hier.gigamax_spec,
}

TABLE1 = ["philos", "ping pong", "gigamax", "scheduler", "dcnew", "2mdlc"]

# the six Table-1 designs plus the gallery make the paper's "dozen or so
# small to medium-sized examples"
_BUILDERS.update(GALLERY)


class UnknownDesign(KeyError):
    """No shipped design has this name (printed without quotes)."""

    def __str__(self) -> str:
        return str(self.args[0])


#: What reading an unreadable design or PIF raises.
READ_ERRORS = (OSError, BlifMvError, VerilogError, PifError, UnknownDesign)


def get_spec(name: str, **params) -> DesignSpec:
    """Build one of the Table-1 designs by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownDesign(
            f"unknown design {name!r}; available: {sorted(_BUILDERS)}"
        ) from None
    return builder(**params)


def design_source(ref: str) -> Tuple[str, str]:
    """``(form, target)`` of a design reference: ``("gallery", NAME)``
    for ``gallery:NAME``, ``("verilog", path)`` for a ``.v`` path,
    ``("blifmv", path)`` for a ``.mv`` path or any other existing file,
    and ``("gallery", ref)`` for anything else (a bare shipped name)."""
    if ref.startswith("gallery:"):
        return "gallery", ref[len("gallery:"):]
    if ref.endswith(".v"):
        return "verilog", ref
    if ref.endswith(".mv") or os.path.isfile(ref):
        return "blifmv", ref
    return "gallery", ref


def read_design(
    ref, form: Optional[str] = None, root: Optional[str] = None
) -> Tuple[str, Design, Optional[PifFile]]:
    """``(name, design, bundled PIF)`` of a reference string (see
    :func:`design_source`) or of the job server's ``(form, text)`` pair.

    ``form`` reads a path as ``"verilog"`` or ``"blifmv"`` whatever its
    suffix, and ``root`` names the Verilog root module.  Only shipped
    designs bundle a PIF; bad input raises one of :data:`READ_ERRORS`.
    """
    if isinstance(ref, tuple):
        form, text = ref
        design = (compile_verilog(text, root=root) if form == "verilog"
                  else parse(text, source="<string>"))
        return design.root, design, None
    if form is None:
        form, ref = design_source(ref)
    if form == "gallery":
        spec = get_spec(ref)
        return spec.name, spec.design, spec.pif
    if form == "verilog":
        with open(ref) as handle:
            design = compile_verilog(handle.read(), root=root, source=ref)
    else:
        design = parse_file(ref)
    return design.root, design, None


def engine_input(design: Design, config: EngineConfig = DEFAULT_CONFIG):
    """What the engine encodes for ``design``: its elaboration when
    ``shared_shapes`` is on and no portfolio runs (the portfolio reads
    its features off the flat model), its flat model otherwise."""
    if config.shared_shapes and config.portfolio is None:
        return elaborate(design)
    return flatten(design)


__all__ = [
    "DesignSpec",
    "GALLERY",
    "READ_ERRORS",
    "TABLE1",
    "UnknownDesign",
    "design_source",
    "engine_input",
    "gallery",
    "get_spec",
    "hier",
    "make_spec",
    "philos",
    "pingpong",
    "gigamax",
    "read_design",
    "scheduler",
    "dcnew",
    "mdlc",
]
