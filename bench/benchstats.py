"""Summary statistics shared by the per-layer bench scripts."""

from __future__ import annotations

import statistics


def summary(samples: list[float]) -> dict:
    """Median and quartiles of per-run timings in microseconds, with the runs."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "runs_us": samples}
