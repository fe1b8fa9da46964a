"""Degradation provenance: how a result fell back, stage by stage.

The paper's flow has a conservative baseline under every refinement:
the transient holding resistance falls back to the plain Thevenin
holding resistance, the pre-characterized alignment table falls back
to the receiver-input objective (the prior art) or to plain peak
alignment.  When a refinement stage fails, the analyzer substitutes
the baseline and records *what* failed and *what* replaced it, so a
degraded-but-complete report is distinguishable from an exact one all
the way to the screen output.

A blown per-net deadline (:class:`NetTimeout`) is not a stage failure:
the handlers let it through, so the net fails instead of degrading and
running on past its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Degradation", "NetTimeout", "QUALITY_DEGRADED",
           "QUALITY_EXACT"]

#: ``NoiseReport.quality`` values.
QUALITY_EXACT = "exact"
QUALITY_DEGRADED = "degraded"


class NetTimeout(Exception):
    """One net's analysis exceeded the per-net wall-clock budget."""


@dataclass(frozen=True)
class Degradation:
    """One stage that failed and the fallback that replaced it.

    ``stage`` names the pipeline stage (``"rtr"``, ``"alignment"``),
    ``error`` is the ``"ExceptionType: message"`` that triggered the
    fallback, and ``fallback`` names the substitute
    (``"thevenin-rth"``, ``"input-objective"``, ``"peak-alignment"``).
    """

    stage: str
    error: str
    fallback: str
