"""Error statistics and table formatting for the benchmark harnesses."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorStats", "format_table", "extra_delay_arrays",
           "record_result"]


@dataclass
class ErrorStats:
    """Error of predicted values against a golden reference."""

    predicted: np.ndarray
    golden: np.ndarray

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=float)
        self.golden = np.asarray(self.golden, dtype=float)
        if self.predicted.shape != self.golden.shape:
            raise ValueError("predicted/golden shape mismatch")
        if self.predicted.size == 0:
            raise ValueError("empty sample")

    @property
    def errors(self) -> np.ndarray:
        return self.predicted - self.golden

    def mean_abs_error(self) -> float:
        return float(np.abs(self.errors).mean())

    def worst_abs_error(self) -> float:
        return float(np.abs(self.errors).max())

    def mean_abs_pct_error(self, floor: float = 0.0) -> float:
        """Mean |error| / |golden| in percent.

        ``floor`` guards tiny golden values from exploding the ratio (the
        paper's per-net percentages are over nets with measurable noise).
        Returns 0.0 when every golden value is masked out (all zero and
        no floor): there is no measurable reference to be wrong against.
        """
        ratios = self._pct_ratios(floor)
        if ratios.size == 0:
            return 0.0
        return float(100.0 * ratios.mean())

    def worst_abs_pct_error(self, floor: float = 0.0) -> float:
        ratios = self._pct_ratios(floor)
        if ratios.size == 0:
            return 0.0
        return float(100.0 * ratios.max())

    def _pct_ratios(self, floor: float) -> np.ndarray:
        denom = np.maximum(np.abs(self.golden), floor)
        mask = denom > 0
        return np.abs(self.errors)[mask] / denom[mask]

    def underestimation_fraction(self) -> float:
        """Fraction of samples where the prediction is below golden."""
        return float((self.errors < 0).mean())

    def correlation(self) -> float:
        if self.predicted.size < 2 or np.std(self.golden) == 0:
            return float("nan")
        return float(np.corrcoef(self.predicted, self.golden)[0, 1])


def extra_delay_arrays(reports) -> tuple[np.ndarray, np.ndarray]:
    """(input, output) extra-delay arrays from a sweep's reports.

    Failed nets (``None`` entries) are skipped, so the arrays line up
    with each other but not necessarily with the input population.
    """
    good = [r for r in reports if r is not None]
    return (np.array([r.extra_delay_input for r in good]),
            np.array([r.extra_delay_output for r in good]))


def record_result(directory, name: str, text: str) -> pathlib.Path:
    """Write an experiment's text output to ``directory/<name>.txt``.

    The file is **replaced** on every call: each benchmark run records
    the latest results only, so stale rows from earlier runs can never
    mix into a figure.  Returns the written path.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def format_table(headers: list[str], rows: list[list],
                 title: str | None = None) -> str:
    """Render a plain-text results table (benchmark console output)."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
