"""Trajectory rate functional and optimal magnetisation trajectories.

A path lives on [0, t) with its endpoint value stored separately (the time
grid stops one spacing short of t, mirroring the one-sided limit toward the
conditioning time). The rate of an admissible path is

    V(phi(0)) + phi(0)^2/2 + (1/2) int_0^t phidot(s)^2 ds - C_{t,alpha},

with C_{t,alpha} the two-layer minimum; minimising paths are the straight
lines from a tilted-rate minimiser at time 0 to alpha at time t, and their
rate equals the normalised two-layer rate of their starting point.

The `traj` command minimises once per query: one global_minimisers call,
made with the command's tolerance flags, gives the paths' starting points and
the C_{t,alpha} that every reported rate is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gibbsdyn import potential as pot
from gibbsdyn import tilted
from gibbsdyn.errors import DomainError

DEFAULT_GRID_N = 1024
ADMISSIBLE_TOL = 1e-8


@dataclass(frozen=True)
class PathOnGrid:
    t_grid: np.ndarray  # strictly increasing, starts at 0, ends just below t
    values: np.ndarray
    endpoint_alpha: float
    t_end: float  # the (open) endpoint time t

    def __post_init__(self):
        tg = np.asarray(self.t_grid, dtype=float)
        if tg.ndim != 1 or tg.size < 2:
            raise DomainError("t_grid must be 1-D with at least two points")
        if tg[0] != 0.0 or np.any(np.diff(tg) <= 0):
            raise DomainError("t_grid must start at 0 and increase strictly")
        if tg[-1] >= self.t_end:
            raise DomainError("t_grid must stay below the endpoint time")
        if np.asarray(self.values).shape != tg.shape:
            raise DomainError("values must match t_grid")

    @property
    def start(self) -> float:
        return float(self.values[0])

    def is_admissible(self) -> bool:
        """The sampled tail must head into the declared endpoint: extrapolating
        the last segment to t has to land on endpoint_alpha within grid
        tolerance (no jump at the open end)."""
        dt_last = self.t_end - float(self.t_grid[-1])
        dt_prev = float(self.t_grid[-1] - self.t_grid[-2])
        slope_prev = (float(self.values[-1]) - float(self.values[-2])) / dt_prev
        predicted = float(self.values[-1]) + slope_prev * dt_last
        tol = max(
            1e-9,
            2.0 * abs(slope_prev) * dt_last,
            2.0 * abs(float(self.values[-1]) - float(self.values[-2])),
        )
        return abs(predicted - self.endpoint_alpha) <= tol


def kinetic_energy(path: PathOnGrid) -> float:
    """(1/2) int phidot^2 by forward-difference Riemann sum, including the
    final segment up to (t, alpha). Exact for piecewise-linear paths."""
    ts = np.concatenate([path.t_grid, [path.t_end]])
    vals = np.concatenate([path.values, [path.endpoint_alpha]])
    dt = np.diff(ts)
    dphi = np.diff(vals)
    return float(0.5 * np.sum(dphi**2 / dt))


def path_rate(spec: pot.PotentialSpec, t: float, alpha: float, path: PathOnGrid) -> float:
    """Rate of the path for conditioning value alpha at time t; +inf when the
    path endpoint does not reach alpha. Each call minimises the two-layer rate
    for C_{t,alpha}. The `traj` command reads every path's rate off the one
    minimisation that found the paths, made with its tolerance flags, through
    the same _rate; C_{t,alpha} does not depend on the tolerances, so both
    give the same bits."""
    return _rate(spec, t, alpha, path, None)


def _rate(spec: pot.PotentialSpec, t: float, alpha: float, path: PathOnGrid, c_t_alpha: float | None) -> float:
    """path_rate against the two-layer minimum c_t_alpha, minimised here when
    it is None and the path is admissible."""
    if not (t > 0):
        raise DomainError("path_rate requires t > 0")
    if abs(path.t_end - t) > 1e-12 * max(1.0, t):
        raise DomainError("path endpoint time does not match t")
    if abs(path.endpoint_alpha - alpha) > ADMISSIBLE_TOL * max(1.0, abs(alpha)):
        return math.inf
    if not path.is_admissible():
        return math.inf
    if c_t_alpha is None:
        c_t_alpha = tilted.global_minimisers(tilted.TiltedRate(spec, t, alpha)).value
    r0 = path.start
    return float(pot.eval(spec, r0)) + 0.5 * r0**2 + kinetic_energy(path) - c_t_alpha


def optimal_path(r: float, alpha: float, t: float, grid_n: int = DEFAULT_GRID_N) -> PathOnGrid:
    """The straight line from (0, r) to (t, alpha), sampled on a uniform grid
    over [0, t) with the endpoint stored separately."""
    if not (t > 0):
        raise DomainError("optimal_path requires t > 0")
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    ts = np.arange(grid_n) * (t / grid_n)
    vals = r + (alpha - r) * (ts / t)
    return PathOnGrid(t_grid=ts, values=vals, endpoint_alpha=float(alpha), t_end=float(t))


def minimising_trajectories(
    spec: pot.PotentialSpec,
    t: float,
    alpha: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> list[PathOnGrid]:
    """One optimal path per global minimiser of the two-layer rate; the list
    has length >= 2 exactly when alpha is bad."""
    if not (t > 0):
        raise DomainError("minimising_trajectories requires t > 0")
    ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, alpha), tol)
    return [optimal_path(q, alpha, t, grid_n) for q in ms.locations]


def path_columns(path: PathOnGrid) -> tuple[np.ndarray, np.ndarray]:
    """The columns (s, phi(s)) of the sampled path, ending at the limit point
    (t, alpha)."""
    return np.append(path.t_grid, path.t_end), np.append(path.values, path.endpoint_alpha)
