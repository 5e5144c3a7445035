"""Log-space composite-Simpson quadrature on adaptively localized grids.

Every integrand here has the shape exp(L(x)) with L carrying factors like
-n*(...) for n up to 1e5, so all sums run through log-sum-exp with
max-subtraction. Grids are chosen in two stages: a generous coarse window
derived from a Gaussian envelope bound, then restriction to the region where
L is within `drop` of its maximum. Because the integrands decay below
exp(-drop) at the final endpoints, composite Simpson converges spectrally
(all Euler-Maclaurin boundary corrections vanish to that order).
"""

from __future__ import annotations

import numpy as np

DEFAULT_DROP = 40.0
REFINE_D2_THRESHOLD = 0.25  # |second difference of L| above this means under-resolved
EXPAND_GROW = 1.6  # expanding_localize widens a hot window by this factor per round
ROW_BLOCK_ELEMENTS = 32768  # 256 KB of float64: 7 rows of a 4097-point grid


def logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    amax = np.max(a)
    amax = amax if np.isfinite(amax) else 0.0
    shifted = a - amax
    np.exp(shifted, out=shifted)  # in place: one temporary the size of a
    return np.log(np.sum(shifted)) + amax


def odd_count(n: int) -> int:
    n = max(int(n), 5)
    return n if n % 2 == 1 else n + 1


def simpson_log_weights(x: np.ndarray) -> np.ndarray:
    """log of composite Simpson weights for an odd-length uniform grid."""
    m = x.size
    if m % 2 == 0:
        raise ValueError("Simpson grid needs an odd number of points")
    h = (x[-1] - x[0]) / (m - 1)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.log(w * (h / 3.0))


def log_integral(x: np.ndarray, log_f: np.ndarray):
    """log of \\int exp(log_f) dx by composite Simpson in log space."""
    return logsumexp(log_f + simpson_log_weights(x))


def _coarse_window(log_f, lo: float, hi: float, n_coarse: int, drop: float):
    """(localize's window, the coarse log-values it was read from)."""
    xs = np.linspace(lo, hi, odd_count(n_coarse))
    L = np.asarray(log_f(xs), dtype=float)
    finite = np.isfinite(L)
    if not finite.any():
        raise ValueError("log-integrand is nowhere finite on the coarse window")
    Lmax = float(L[finite].max())
    keep = np.flatnonzero(finite & (L >= Lmax - drop))
    pad = xs[1] - xs[0]
    return (float(xs[keep[0]] - pad), float(xs[keep[-1]] + pad), Lmax), L


def localize(log_f, lo: float, hi: float, n_coarse: int, drop: float = DEFAULT_DROP):
    """Sub-window of [lo, hi] where log_f reaches within `drop` of its max.

    Returns (sub_lo, sub_hi, max_value). The hull of the kept points is padded
    by one coarse spacing on each side."""
    return _coarse_window(log_f, lo, hi, n_coarse, drop)[0]


def expanding_localize(log_f, lo: float, hi: float, n_coarse: int):
    """localize(), but first widen the window until the edges are cold
    (log_f at both edges at least DEFAULT_DROP below the running max): each hot
    edge moves out by (EXPAND_GROW - 1)/2 x the width, for at most 10 rounds."""
    for _ in range(10):
        window, L = _coarse_window(log_f, lo, hi, n_coarse, DEFAULT_DROP)
        hot_left = np.isfinite(L[0]) and L[0] > window[2] - DEFAULT_DROP
        hot_right = np.isfinite(L[-1]) and L[-1] > window[2] - DEFAULT_DROP
        if not hot_left and not hot_right:
            return window
        width = hi - lo
        if hot_left:
            lo -= 0.5 * (EXPAND_GROW - 1.0) * width
        if hot_right:
            hi += 0.5 * (EXPAND_GROW - 1.0) * width
    raise ValueError("could not bracket the integrand support while expanding the window")


def simpson_grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, odd_count(n))


def refine_if_rough(x: np.ndarray, L: np.ndarray, log_f):
    """One adaptive refinement pass: if the second difference of the
    log-integrand exceeds the threshold anywhere mass lives (within
    DEFAULT_DROP of the max), double the grid."""
    relevant = L >= (np.max(L) - DEFAULT_DROP)
    if relevant.sum() >= 3:
        d2 = np.abs(np.diff(L, 2))
        mask = relevant[1:-1]
        if mask.any() and float(d2[mask].max()) > REFINE_D2_THRESHOLD:
            x2 = simpson_grid(x[0], x[-1], 2 * (x.size - 1) + 1)
            return x2, np.asarray(log_f(x2), dtype=float)
    return x, L


def trapezoid_cdf(x: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of a grid density, clipped to [0, 1]."""
    inc = 0.5 * (density[1:] + density[:-1]) * np.diff(x)
    cdf = np.concatenate(([0.0], np.cumsum(inc)))
    total = cdf[-1]
    if total > 0:
        cdf = cdf / total
    return np.clip(cdf, 0.0, 1.0)
