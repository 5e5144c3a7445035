"""A machine-speed probe that puts job times on a fixed scale.

On a shared 2-core sandbox the speed of a core drifts by 10-40% over
seconds to minutes, and CPU time drifts with wall time, so a run that
lands in a slow stretch reads slow throughout. A fixed probe, sharing no
code with gibbsdyn, runs before every job, and each job's time is
multiplied by REFERENCE_S / (median of the probes around it). The
reported seconds are seconds on a machine where the probe takes
REFERENCE_S; on the machine the bounds were measured on the scale is
about 1. A change to gibbsdyn cannot move the probe, so it moves the
scaled times in full.

The probe has the two shapes of gibbsdyn's hot paths: a golden-section
loop over one-point `polyval` calls (the two-layer minimiser in tilted,
gridmin and potential) and in-place passes over an 8 MB buffer, larger
than the per-core cache (the quadrature kernels and curvature scans).
Over runs of each workload this mixed probe cut the spread of wall_s two-
to fivefold; a probe of one shape alone over-corrects the other workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time, in a running workload, on the machine the bounds were
# measured on (2-core Xeon sandbox).
REFERENCE_S = 0.0065
HALF_WINDOW = 4  # a job is scaled by the median of the 9 probes around it

_COEFFS = np.array([3.0, 0.0, -4.0, 0.0, 1.0])
# One 8 MB buffer, worked in place: the probe adds no temporaries to the
# peak memory that peak_rss_mb reports.
_BUF = np.empty(1 << 20)


def _scalar():  # the shape of the golden-section minimiser
    a, b = -2.0, 0.5
    for _ in range(200):
        c = b - 0.618 * (b - a)
        d = a + 0.618 * (b - a)
        fc = float(np.polynomial.polynomial.polyval(np.asarray([c]), _COEFFS)[0])
        fd = float(np.polynomial.polynomial.polyval(np.asarray([d]), _COEFFS)[0])
        if fc < fd:
            b = d
        else:
            a = c


def _vector():  # the shape of the quadrature kernels
    _BUF.fill(-0.5)
    np.exp(_BUF, out=_BUF)
    if not np.isfinite(np.log(np.sum(_BUF))):
        raise ArithmeticError("speed probe produced a non-finite value")


def probe() -> float:
    """Seconds taken by the fixed probe computation."""
    start = time.perf_counter()
    _scalar()
    _vector()
    return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Per-job factors REFERENCE_S / local median probe time."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
