"""One-dimensional global minimisation by dense grid scan plus golden-section
refinement of each candidate basin, and the batch driver of every bracket
refinement.

All scans are vectorised over numpy arrays. A refinement runs one scalar
iteration per bracket, written as a coroutine, and _drive steps them all
together with one objective call per round. Golden section converges
linearly with ratio 1/phi, about 50 rounds from a grid bracket to
REFINE_TOL; tilted._refine therefore runs safeguarded Newton with bisection
on the sign of U' through _drive for every potential, and golden section
serves only global_minimum.
"""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618034
REFINE_TOL = 1e-13  # bracket x-tolerance of every refinement, relative to max(1, |lo| + |hi|)


def _drive(runs: list, f) -> list:
    """Step coroutines together and return their return values. Each yields
    the next point it needs f at and is sent the value; a round makes one
    call f(x, j) -> array, for the points x of the coroutines j still open."""
    out, live = [None] * len(runs), list(range(len(runs)))
    points = [next(run) for run in runs]
    while live:
        values = f(np.asarray(points, dtype=float), np.asarray(live, dtype=int)).tolist()
        still, points = [], []
        for k, v in zip(live, values):
            try:
                points.append(runs[k].send(v))
                still.append(k)
            except StopIteration as stop:
                out[k] = stop.value
        live = still
    return out


def golden_section(f, lo, hi):
    """Minimise unimodal functions on the brackets [lo[j], hi[j]], each to
    REFINE_TOL, in one batch (_drive): f(x, j) is the array of bracket j[k]'s
    function at x[k]. Returns arrays (x, f(x)). A bracket shrinks by 1/phi
    per round, for at most 200 rounds."""

    def golden(a, b):
        c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
        fc = yield c
        fd = yield d
        for _ in range(200):
            if b - a <= REFINE_TOL * max(1.0, abs(a) + abs(b)):
                break
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - INV_PHI * (b - a)
                fc = yield c
            else:
                a, c, fc = c, d, fd
                d = a + INV_PHI * (b - a)
                fd = yield d
        return (c, fc) if fc < fd else (d, fd)

    runs = [golden(a, b) for a, b in zip(np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist())]
    return tuple(np.asarray(_drive(runs, f), dtype=float).reshape(-1, 2).T.copy())


def local_minima_indices(values: np.ndarray) -> np.ndarray:
    """Indices of interior grid points that are <= both neighbours, plus the
    endpoints when they are below their single neighbour."""
    v = np.asarray(values)
    low = np.zeros(v.size, dtype=bool)
    low[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    if v.size >= 2:
        low[0], low[-1] = v[0] < v[1], v[-1] < v[-2]
    return np.flatnonzero(low)


def global_minimum(f, lo: float, hi: float, n_grid: int):
    """The global minimum of f on [lo, hi] as (x, value).

    f must map a numpy array to one. Every grid local minimum whose value lies
    within a keep band of the grid minimum is refined by golden section inside
    its one-spacing bracket, all in one batch; the band is a discretisation
    bound estimated from second differences, so true ties are never dropped.
    Among equal refined values the smallest x wins.
    """
    xs = np.linspace(lo, hi, int(n_grid))
    vs = np.asarray(f(xs), dtype=float)
    if not np.isfinite(vs).any():
        raise ValueError("objective is nowhere finite on the scan window")
    vmin = np.nanmin(vs)
    d2 = np.abs(np.diff(vs, 2)) if np.isfinite(vs).all() else np.array([0.0])
    curv = float(d2.max()) if d2.size else 0.0
    keep_band = max(1e-6 * max(1.0, abs(vmin)), 0.75 * curv)
    cand = local_minima_indices(vs)
    cand = cand[np.isfinite(vs[cand]) & (vs[cand] <= vmin + keep_band)]
    x, v = golden_section(lambda s, _: f(s), xs[np.maximum(cand - 1, 0)], xs[np.minimum(cand + 1, xs.size - 1)])
    return min(zip(x.tolist(), v.tolist()), key=lambda m: (m[1], m[0]))
