"""Output checks that hold for every seed.

Each check returns a list of problems; an empty list means the output is
right. The oracles here share no code with the package beyond evaluating
V itself: minimisers come from a dense uniform scan, Gaussians from their
closed form, crossover times from the closed forms of the spec gallery.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from gibbsdyn import potential as pot

# Dense-scan oracle: 400k points keep the value error near 1e-9 on the specs
# used here; chunks keep the oracle's memory far below the program's.
BRUTE_GRID = 400_001
BRUTE_CHUNK = 50_000
CLUSTER_GAP = 1e-3
VALUE_TOL = 1e-7

# KS statistics are compared against the DKW band sqrt(ln(2/delta) / (2N)).
DKW_DELTA = 1e-6
DKW_MAX_BINWIDTH = 0.01

ZERO_TOL = 1e-10
MASS_DEFECT_TOL = 1e-8


def _rate_on(spec, t, alpha, xs):
    return np.asarray(pot.eval(spec, xs)) + xs**2 / 2.0 + (xs - alpha) ** 2 / (2.0 * t)


def brute_force_minima(spec, t: float, alpha: float, n_grid: int = BRUTE_GRID):
    """Grid local minima of U(r) = V(r) + r^2/2 + (r - alpha)^2/(2t) on the
    truncation window, as (values, locations, resolution) sorted by value.
    Neighbouring local minima closer than CLUSTER_GAP are merged into the
    lower one. The true minimum lies at most `resolution` below the grid
    minimum: the larger step to a neighbour of the best grid point, which
    bounds the drop inside its cells (first order at a kink such as |r|)."""
    c = alpha / (1.0 + t)
    k = (1.0 + t) / (2.0 * t)
    floor = min(spec.v_floor, 0.0)
    v_c = float(pot.eval(spec, c)) - floor
    radius = math.sqrt((v_c + 10.0) / k)
    xs = np.linspace(c - radius, c + radius, n_grid)
    vals = np.empty_like(xs)
    for lo in range(0, n_grid, BRUTE_CHUNK):
        vals[lo : lo + BRUTE_CHUNK] = _rate_on(spec, t, alpha, xs[lo : lo + BRUTE_CHUNK])
    idx = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    merged: list[int] = []
    for i in idx:
        if merged and xs[i] - xs[merged[-1]] <= CLUSTER_GAP:
            if vals[i] < vals[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(int(i))
    merged.sort(key=lambda i: vals[i])
    best = merged[0]
    resolution = float(max(vals[max(best - 1, 0)], vals[min(best + 1, n_grid - 1)]) - vals[best])
    return [float(vals[i]) for i in merged], [float(xs[i]) for i in merged], resolution


def brute_force_minimisers(spec, t: float, alpha: float):
    """(minimum, sorted global-minimiser locations, resolution) of the tilted rate."""
    values, locs, resolution = brute_force_minima(spec, t, alpha)
    best = values[0]
    band = VALUE_TOL * max(1.0, abs(best))
    return best, sorted(x for v, x in zip(values, locs) if v <= best + band), resolution


# -- phase_diagram ------------------------------------------------------------


def check_bad_scan(spec, t: float, t_first_bad: float, results: dict) -> list[str]:
    """Every interval endpoint is a tie of two separated minima; alpha = 0 is
    bad exactly when t exceeds the spec's first bad time (even potentials)."""
    problems = []
    intervals = results["intervals"]
    if results["n_bad_intervals"] != len(intervals):
        problems.append("n_bad_intervals does not match the interval list")
    for lo, hi in intervals:
        if lo > hi:
            problems.append(f"interval [{lo}, {hi}] is reversed")
        for a in {lo, hi}:
            values, locs, _ = brute_force_minima(spec, t, a)
            if len(values) < 2:
                problems.append(f"endpoint {a}: the oracle finds a single minimum")
                continue
            # bisection leaves the endpoint within 1e-6 of the tie, which
            # moves the two minima apart by |q1 - q2| * 1e-6 / t
            tie_band = 2e-6 * abs(locs[0] - locs[1]) / t + 1e-7
            if values[1] - values[0] > tie_band:
                problems.append(
                    f"endpoint {a}: oracle minima differ by {values[1] - values[0]:.3g} > {tie_band:.3g}"
                )
    zero_bad = any(lo - 1e-6 <= 0.0 <= hi + 1e-6 for lo, hi in intervals)
    if zero_bad != (t > t_first_bad):
        problems.append(f"alpha = 0 bad is {zero_bad} at t = {t}, first bad time {t_first_bad}")
    return problems


def check_limitpot(spec, t: float, results: dict, csv_text: str, samples: int = 5) -> list[str]:
    """Sampled V_t(r) = inf_s [V(s) + s^2/2 + (s - r)^2/(2t)] - r^2/(2(1+t))
    agree with the dense scan."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["r", "v_t"]:
        return [f"unexpected limitpot CSV header {rows[0]}"]
    data = np.asarray([[float(a), float(b)] for a, b in rows[1:]])
    problems = []
    if abs(float(data[:, 1].min()) - results["vt_min"]) > 0.0:
        problems.append("vt_min differs from the CSV column minimum")
    for i in np.linspace(0, len(data) - 1, samples).round().astype(int):
        r, vt = data[i]
        best, _, resolution = brute_force_minimisers(spec, t, r)
        want = best - r**2 / (2.0 * (1.0 + t))
        if not want - resolution - 1e-8 <= vt <= want + 1e-8:
            problems.append(f"V_t({r}) = {vt}, oracle {want} - [0, {resolution:.3g}]")
    return problems


def check_traj(spec, t: float, alpha: float, results: dict) -> list[str]:
    """One zero-rate trajectory per global minimiser of the tilted rate."""
    starts = results["starting_points"]
    rates = results["rates"]
    problems = []
    if not (results["n_trajectories"] == len(starts) == len(rates)):
        problems.append("trajectory count does not match starts and rates")
    if any(abs(r) > 1e-7 for r in rates):
        problems.append(f"optimal trajectories have nonzero rate {rates}")
    _, locs, _ = brute_force_minimisers(spec, t, alpha)
    if len(locs) != len(starts) or any(abs(a - b) > CLUSTER_GAP for a, b in zip(sorted(starts), locs)):
        problems.append(f"starting points {starts} differ from the oracle minimisers {locs}")
    return problems


# -- finite_n -----------------------------------------------------------------


def _kernel_csv(csv_text: str) -> np.ndarray:
    lines = csv_text.splitlines()
    if lines[0] != "x,density":
        raise ValueError(f"unexpected kernel CSV header {lines[0]!r}")
    return np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)


def check_kernel_mass(results: dict) -> list[str]:
    defect = results["total_mass_defect"]
    return [] if defect <= MASS_DEFECT_TOL else [f"total_mass_defect {defect} > {MASS_DEFECT_TOL}"]


def check_gaussian_kernel(results: dict, csv_text: str, variance: float) -> list[str]:
    """A zero-potential kernel is N(0, variance) to 1e-10."""
    problems = []
    if abs(results["mean"]) > ZERO_TOL:
        problems.append(f"mean {results['mean']} != 0")
    if abs(results["variance"] - variance) > ZERO_TOL:
        problems.append(f"variance {results['variance']} != {variance}")
    if results["total_mass_defect"] > ZERO_TOL:
        problems.append(f"total_mass_defect {results['total_mass_defect']} > {ZERO_TOL}")
    data = _kernel_csv(csv_text)
    x, dens = data[:, 0], data[:, 1]
    exact = np.exp(-(x**2) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    err = float(np.max(np.abs(dens - exact)))
    if err > ZERO_TOL:
        problems.append(f"density differs from N(0, {variance}) by {err:.3g}")
    return problems


def check_selection_mean(results: dict, alpha: float) -> list[str]:
    """Along alpha_n = +-1/sqrt(n) at a bad time the kernel mean follows the
    selected branch, whose limit mean is far from 0 (criterion 4)."""
    mean = results["mean"]
    if math.copysign(1.0, alpha) * mean > 1.0:
        return []
    return [f"mean {mean} does not follow the branch selected by alpha = {alpha}"]


def check_eta(spec, t: float, alpha: float, results: dict) -> list[str]:
    """The time-0 magnetisation law stays within the span of the minimisers."""
    problems = check_kernel_mass(results)
    _, locs, _ = brute_force_minimisers(spec, t, alpha)
    if not (min(locs) - 0.5 <= results["mean"] <= max(locs) + 0.5):
        problems.append(f"eta mean {results['mean']} is outside the minimisers {locs}")
    if not results["variance"] > 0.0:
        problems.append("eta variance is not positive")
    return problems


def check_abs_initial(results: dict, alpha: float) -> list[str]:
    """|r| at n = 10000, alpha = +-1/sqrt(n-1): mean -+1, variance 1 (criterion 5)."""
    problems = check_kernel_mass(results)
    want = -math.copysign(1.0, alpha)
    if abs(results["mean"] - want) > 0.05 or abs(results["variance"] - 1.0) > 0.05:
        problems.append(f"abs initial kernel mean {results['mean']} variance {results['variance']}")
    return problems


def dkw_band(n: int, delta: float = DKW_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def check_simulate(results: dict, params: dict, method: str | None) -> list[str]:
    problems = []
    accepted = results["accepted"]
    if accepted < 100:
        problems.append(f"only {accepted} accepted samples")
    if not (0.0 < results["acceptance_rate"] <= 1.0):
        problems.append(f"acceptance rate {results['acceptance_rate']} outside (0, 1]")
    if method is not None and params["method"] != method:
        problems.append(f"sampler {params['method']} != requested {method}")
    ks = results["ks_vs_quadrature"]["ks_statistic"]
    if params["binwidth"] <= DKW_MAX_BINWIDTH and ks > dkw_band(accepted):
        problems.append(f"KS {ks:.4g} above the DKW band {dkw_band(accepted):.4g}")
    return problems


# -- classify -----------------------------------------------------------------


def check_tc(expect: dict, results: dict) -> list[str]:
    """Crossover report against the closed form t_c = 1/(beta - 1/2)."""
    problems = []
    t_c = results["t_c"]
    want = expect.get("t_c")
    if want == "inf" or want == 0.0:
        if t_c != want:
            problems.append(f"t_c {t_c} != {want}")
    elif want is not None:
        if t_c == "inf" or abs(t_c - want) > expect["t_c_tol"]:
            problems.append(f"t_c {t_c} != {want} +- {expect['t_c_tol']}")
    else:  # no closed form: only a finite positive time
        if t_c == "inf" or not t_c > 0.0:
            problems.append(f"t_c {t_c} is not finite and positive")
    if "beta" in expect and abs(results["beta"] - expect["beta"]) > expect["beta_tol"]:
        problems.append(f"beta {results['beta']} != {expect['beta']}")
    if "status" in expect and results["gibbs_at_tc"] != expect["status"]:
        problems.append(f"status at t_c {results['gibbs_at_tc']} != {expect['status']}")
    if "method" in expect and results["method"] != expect["method"]:
        problems.append(f"method {results['method']} != {expect['method']}")
    return problems


def check_oracle(results: dict) -> list[str]:
    return [] if results["agreement"] is True else ["tilt and triple sides disagree"]


def check_gibbs_at(result, t: float, t_c: float) -> list[str]:
    """Sequentially Gibbs exactly below the closed-form crossover time."""
    want = t < t_c
    return [] if result is want else [f"gibbs_at({t}) = {result}, closed form says {want}"]
