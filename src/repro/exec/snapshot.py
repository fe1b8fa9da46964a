"""Characterization snapshots — the worker warm-start protocol.

Characterization (non-linear Thevenin fitting, 8-point alignment
sweeps) is *per cell*, and it is the only expensive state a
:class:`~repro.core.analysis.DelayNoiseAnalyzer` accumulates.  The
process-pool workers of :mod:`repro.exec.pool` must never re-run a
characterization simulation, so the parent:

1. **warms** its analyzer — pre-builds every Thevenin and alignment
   table the work list will need (:func:`warm_analyzer`);
2. **snapshots** the caches into a plain-dict payload using the same
   dict codecs :mod:`repro.storage` uses for the on-disk chardb
   (:func:`build_snapshot`);
3. ships the snapshot to each worker once, via the pool initializer,
   where :func:`restore_analyzer` rehydrates a fully warm analyzer.

Because the codecs round-trip floats exactly and gates are rebuilt
deterministically by cell name, a rehydrated analyzer produces
bit-identical reports to the parent's — parallel and serial runs agree
to the last bit.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.analysis import DelayNoiseAnalyzer
from repro.core.net import CoupledNet
from repro.obs import get_logger, span
from repro.storage import characterization_payload, install_characterization

__all__ = ["warm_analyzer", "build_snapshot", "restore_analyzer"]

log = get_logger("exec.snapshot")


def warm_analyzer(analyzer: DelayNoiseAnalyzer,
                  nets: Iterable[CoupledNet], *,
                  alignment: str = "table") -> None:
    """Pre-build every characterization table ``nets`` will need.

    Thevenin tables are built for each victim and aggressor driver;
    alignment tables for each (receiver cell, victim direction) when the
    table alignment method is in use.  Tables already cached are free
    (cache hits), so warming an already-hot analyzer costs nothing.
    """
    for net in nets:
        analyzer.cache.table_for(net.victim_driver)
        for agg in net.aggressors:
            analyzer.cache.table_for(agg.driver)
        if alignment == "table":
            analyzer.alignment_table_for(net.receiver.gate,
                                         net.victim_rising)


def build_snapshot(analyzer: DelayNoiseAnalyzer) -> dict[str, Any]:
    """Capture an analyzer's characterization state as a plain dict.

    The payload is the :mod:`repro.storage` chardb payload, so a worker
    reconstructs an equivalent analyzer without touching the parent's
    objects.
    """
    with span("exec.snapshot.build"):
        payload = characterization_payload(analyzer)
    log.debug("snapshot: %d thevenin tables, %d alignment tables",
              len(analyzer.cache), len(analyzer.alignment_tables()))
    return payload


def restore_analyzer(snapshot: dict[str, Any]) -> DelayNoiseAnalyzer:
    """Rehydrate a fully warm analyzer from :func:`build_snapshot`."""
    with span("exec.snapshot.restore"):
        analyzer = DelayNoiseAnalyzer()
        install_characterization(snapshot, analyzer)
    return analyzer
