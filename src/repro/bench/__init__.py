"""Benchmark substrate: synthetic coupled-net population and stats.

* :mod:`repro.bench.netgen` — seeded generator of coupled victim/aggressor
  nets standing in for the paper's "300 nets from a high performance
  microprocessor block", plus the canonical hand-sized circuits used by
  the figure benches.
* :mod:`repro.bench.runner` — error statistics and result-table helpers
  shared by the benchmark harnesses.
"""

from repro.bench.netgen import NetGenerator, canonical_net
from repro.bench.runner import (
    ErrorStats,
    extra_delay_arrays,
    format_table,
    record_result,
    run_population,
)

__all__ = ["NetGenerator", "canonical_net", "ErrorStats", "format_table",
           "run_population", "extra_delay_arrays", "record_result"]
