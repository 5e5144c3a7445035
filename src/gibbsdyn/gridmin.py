"""One-dimensional global minimisation by dense grid scan plus golden-section
refinement of each candidate basin.

All scans are vectorised over numpy arrays; the golden-section loop is the
only scalar iteration and converges linearly with ratio 1/phi.
"""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034
REFINE_TOL = 1e-13  # golden-section x-tolerance, relative to max(1, |lo| + |hi|)


def golden_section(f, lo: float, hi: float):
    """Minimise a unimodal scalar function on [lo, hi] to REFINE_TOL.

    Returns (x, f(x)). The bracket shrinks by 1/phi per iteration, for at
    most 200 iterations; one new function evaluation per step.
    """
    a, b = float(lo), float(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= REFINE_TOL * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def local_minima_indices(values: np.ndarray) -> np.ndarray:
    """Indices of interior grid points that are <= both neighbours, plus the
    endpoints when they are below their single neighbour."""
    v = np.asarray(values)
    idx = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
    out = list(idx)
    if v.size >= 2 and v[0] < v[1]:
        out.insert(0, 0)
    if v.size >= 2 and v[-1] < v[-2]:
        out.append(v.size - 1)
    return np.asarray(sorted(set(out)), dtype=int)


def global_minimum(f, lo: float, hi: float, n_grid: int):
    """The global minimum of f on [lo, hi] as (x, value).

    f must accept a numpy array. Every grid local minimum whose value lies
    within a keep band of the grid minimum is refined by golden section inside
    its one-spacing bracket; the band is a discretisation bound estimated from
    second differences, so true ties are never dropped. Among equal refined
    values the smallest x wins.
    """
    xs = np.linspace(lo, hi, int(n_grid))
    vs = np.asarray(f(xs), dtype=float)
    if not np.isfinite(vs).any():
        raise ValueError("objective is nowhere finite on the scan window")
    vmin = np.nanmin(vs)
    d2 = np.abs(np.diff(vs, 2)) if np.isfinite(vs).all() else np.array([0.0])
    curv = float(d2.max()) if d2.size else 0.0
    keep_band = max(1e-6 * max(1.0, abs(vmin)), 0.75 * curv)
    cand = [i for i in local_minima_indices(vs) if np.isfinite(vs[i]) and vs[i] <= vmin + keep_band]

    found = []
    for i in cand:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, xs.size - 1)]
        if a == b:
            found.append((float(xs[i]), float(vs[i])))
            continue
        x, v = golden_section(lambda s: float(f(np.asarray([s]))[0]), a, b)
        found.append((float(x), float(v)))
    return min(found, key=lambda m: (m[1], m[0]))
