"""The three workloads: job lists built from a seed.

A job is one CLI invocation through `gibbsdyn.cli.run(argv)` or one public
library call. The seed moves alpha offsets, scan windows, Monte Carlo seeds
and the job order inside fixed ranges; it never changes which jobs run, so
every seed does the same kind and amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Spec gallery (tests/conftest.py builtins plus glued_exp(2.5) and a table).
_TABLE_GRID = np.linspace(-4.0, 4.0, 81)
SPECS = {
    "zero": {"family": "zero", "params": {}},
    "quadratic": {"family": "polynomial", "params": {"coefficients": [0.0, 0.0, 1.0]}},
    "double_well": {"family": "polynomial", "params": {"coefficients": [3.0, 0.0, -4.0, 0.0, 1.0]}},
    "shallow_quartic": {"family": "polynomial", "params": {"coefficients": [1.0, 0.0, -0.5, 0.0, 1.0]}},
    "cosine_1": {"family": "cosine_well", "params": {"beta": 1.0}},
    "cosine_0.4": {"family": "cosine_well", "params": {"beta": 0.4}},
    "cos_of_square": {"family": "cos_of_square", "params": {}},
    "glued_1": {"family": "glued_exp", "params": {"beta": 1.0}},
    "abs": {"family": "abs", "params": {}},
    "glued_2.5": {"family": "glued_exp", "params": {"beta": 2.5}},
    "table": {
        "family": "custom_table",
        "params": {"grid": _TABLE_GRID.tolist(), "values": ((_TABLE_GRID**2 - 16.0) ** 2 / 16.0).tolist()},
    },
}
BUILTINS = (
    "zero", "quadratic", "double_well", "shallow_quartic", "cosine_1",
    "cosine_0.4", "cos_of_square", "glued_1", "abs",
)

# First bad time of the direct scan, 1/(2 beta - 1) with beta = -inf V''/2.
T_FIRST_BAD = {"double_well": 1.0 / 7.0, "cosine_1": 1.0, "glued_1": 1.0, "abs": math.inf}
# Closed-form crossover time t_c = 1/(beta - 1/2) of the classifier.
T_C = {
    "zero": math.inf, "quadratic": math.inf, "double_well": 2.0 / 7.0,
    "shallow_quartic": math.inf, "cosine_1": 2.0, "cosine_0.4": math.inf,
    "cos_of_square": 0.0, "glued_1": 2.0, "abs": math.inf, "glued_2.5": 0.5,
}
TC_EXPECT = {
    "zero": {"t_c": "inf"},
    "quadratic": {"t_c": "inf"},
    "shallow_quartic": {"t_c": "inf"},
    "cosine_0.4": {"t_c": "inf"},
    "abs": {"t_c": "inf"},
    "cos_of_square": {"t_c": 0.0},
    "double_well": {"t_c": 2.0 / 7.0, "t_c_tol": 1e-6, "beta": 4.0, "beta_tol": 1e-8, "status": "gibbs"},
    "cosine_1": {"t_c": 2.0, "t_c_tol": 1e-6, "status": "gibbs"},
    "glued_1": {"t_c": 2.0, "t_c_tol": 1e-3, "status": "non_gibbs"},
    "glued_2.5": {"t_c": 0.5, "t_c_tol": 1e-3, "status": "non_gibbs"},
    "table": {"method": "phi2_scan"},
}
# Oracle curvature bounds, each well away from the spec's -inf Phi2.
ORACLE_BETAS = {"double_well": (3.0, 5.0), "cosine_1": (0.5, 1.5), "glued_1": (0.5, 1.5), "shallow_quartic": (0.25, 1.0)}


@dataclass
class Job:
    """One unit of timed work.

    argv: CLI arguments without --out (CLI jobs); call: fn(specs) (library jobs).
    check(output) lists problems that hold for every seed.
    summary(output) gives {key: (value, tolerance)} compared with the
    outputs recorded at the default seed; tolerance None means equality.
    """

    id: str
    check: Callable
    summary: Callable
    argv: list | None = None
    call: Callable | None = None
    spec: str = ""


def _f(x: float) -> str:
    return repr(float(x))


def _cli(job_id, spec, argv, check, summary) -> Job:
    return Job(id=job_id, argv=argv, spec=spec, check=check, summary=summary)


def _approx(results: dict, keys, tol):
    return {k: (results[k], tol) for k in keys}


def _relative(value, tol):
    """(value, absolute tolerance) for a relative tolerance; "inf" compares equal."""
    return (value, None) if isinstance(value, str) else (value, tol * max(1.0, abs(value)))


# -- phase_diagram -----------------------------------------------------------

SCAN_TIMES = {"double_well": (0.12, 0.2, 0.27, 0.3), "cosine_1": (0.8, 1.25), "glued_1": (0.8, 1.25), "abs": (0.5, 2.0)}
LIMITPOT_TIMES = {"double_well": (0.12, 0.3), "cosine_1": (0.8, 1.25), "glued_1": (0.8, 1.25), "abs": (0.5, 2.0)}
TRAJ_TIMES = {"double_well": (0.12, 0.2, 0.27, 0.3), "cosine_1": (0.8, 1.25), "glued_1": (0.8, 1.25), "abs": (0.5, 2.0)}


def phase_diagram(rng: random.Random, spec_path, specs) -> list[Job]:
    jobs = []
    for name, times in SCAN_TIMES.items():
        for t in times:
            half = rng.uniform(4.5, 5.5)  # symmetric window, odd grid: alpha = 0 is a grid point
            jobs.append(_cli(
                f"bad-scan/{name}/t={t}", name,
                ["bad-scan", "--potential", spec_path(name), "--t", _f(t), f"--window={-half!r},{half!r}", "--grid", "201"],
                lambda o, s=name, t=t: checks.check_bad_scan(specs[s], t, T_FIRST_BAD[s], o.results),
                lambda o: {"intervals": (o.results["intervals"], 2e-6)},
            ))
    for name, times in LIMITPOT_TIMES.items():
        for t in times:
            half = rng.uniform(2.5, 3.5)
            jobs.append(_cli(
                f"limitpot/{name}/t={t}", name,
                ["limitpot", "--potential", spec_path(name), "--t", _f(t), f"--window={-half!r},{half!r}", "--grid", "101"],
                lambda o, s=name, t=t: checks.check_limitpot(specs[s], t, o.results, o.text("limitpot.csv")),
                lambda o: _approx(o.results, ("vt_min",), 1e-8),
            ))
    for name, times in TRAJ_TIMES.items():
        for t in times:
            # alpha = 0 is bad above the first bad time; the offsets are good
            for alpha in (0.0, rng.uniform(0.1, 1.5), -rng.uniform(0.1, 1.5)):
                jobs.append(_cli(
                    f"traj/{name}/t={t}/alpha={alpha:.6f}", name,
                    ["traj", "--potential", spec_path(name), "--t", _f(t), "--alpha", _f(alpha)],
                    lambda o, s=name, t=t, a=alpha: checks.check_traj(specs[s], t, a, o.results),
                    lambda o: {
                        "starting_points": (o.results["starting_points"], 1e-7),
                        "rates": (o.results["rates"], 1e-9),
                    },
                ))
    return jobs


# -- finite_n ----------------------------------------------------------------

LADDER_N = (50, 400, 3200)  # initial and eta kernels
EVOLVED_LADDER_N = (50, 3200)  # evolved kernels cost ~0.35 s each
LADDER_TIMES = (1.0, 0.2)
ZERO_N = (2, 64, 10000)


def _kernel_summary(o):
    return _approx(o.results, ("mean", "variance"), 1e-8)


def finite_n(rng: random.Random, spec_path, specs) -> list[Job]:
    jobs = []
    base = rng.uniform(-1e-3, 1e-3)  # ladder centre: alpha_n = base +- 1/sqrt(n)

    def kernel(job_id, name, n, t, alpha, check):
        return _cli(
            job_id, name,
            ["kernel", "--potential", spec_path(name), "--n", str(n), "--t", _f(t), "--alpha", _f(alpha)],
            check, _kernel_summary,
        )

    for t in LADDER_TIMES:
        for n in EVOLVED_LADDER_N:
            for sign in (1.0, -1.0):
                a = base + sign / math.sqrt(n)
                jobs.append(kernel(
                    f"kernel/double_well/ladder/t={t}/n={n}/{'+' if sign > 0 else '-'}", "double_well", n, t, a,
                    lambda o, a=a: checks.check_kernel_mass(o.results) + checks.check_selection_mean(o.results, a),
                ))
    jobs.append(kernel(
        "kernel/double_well/n=64/t=0.1", "double_well", 64, 0.1, rng.uniform(-0.01, 0.01),
        lambda o: checks.check_kernel_mass(o.results),
    ))
    for name in ("cosine_1", "glued_1"):
        jobs.append(kernel(
            f"kernel/{name}/n=100/t=1", name, 100, 1.0, rng.uniform(0.2, 0.4),
            lambda o: checks.check_kernel_mass(o.results),
        ))
    for n in ZERO_N:
        for t in (1.0, 0.0):
            jobs.append(kernel(
                f"kernel/zero/n={n}/t={t}", "zero", n, t, rng.uniform(0.0, 3.0),
                lambda o, t=t: checks.check_gaussian_kernel(o.results, o.text("kernel.csv"), 1.0 + t),
            ))
    # initial kernels (t = 0) along the ladders, and |r| at n = 10000
    for n in LADDER_N:
        for sign in (1.0, -1.0):
            a = base + sign / math.sqrt(n)
            jobs.append(kernel(
                f"kernel/double_well/initial/n={n}/{'+' if sign > 0 else '-'}", "double_well", n, 0.0, a,
                lambda o: checks.check_kernel_mass(o.results),
            ))
    for sign in (1.0, -1.0):
        a = sign / math.sqrt(9999.0)
        jobs.append(kernel(
            f"kernel/abs/initial/n=10000/{'+' if sign > 0 else '-'}", "abs", 10000, 0.0, a,
            lambda o, a=a: checks.check_abs_initial(o.results, a),
        ))
    for name in ("cosine_1", "glued_1"):
        for i in range(2):
            jobs.append(kernel(
                f"kernel/{name}/initial/n=100/{i}", name, 100, 0.0, rng.uniform(-0.5, 0.5),
                lambda o: checks.check_kernel_mass(o.results),
            ))
    # eta: the two-layer magnetisation kernel
    eta_cases = [("double_well", n, 0.2, base + sign / math.sqrt(n)) for n in LADDER_N for sign in (1.0, -1.0)]
    eta_cases += [("double_well", 200, 1.0, rng.uniform(-0.5, 0.5)) for _ in range(2)]
    eta_cases += [("double_well", 200, 0.12, rng.uniform(-0.5, 0.5)) for _ in range(3)]
    eta_cases += [(name, 200, 1.5, rng.uniform(0.1, 0.3)) for name in ("cosine_1", "glued_1") for _ in range(2)]
    for i, (name, n, t, a) in enumerate(eta_cases):
        jobs.append(_cli(
            f"eta/{i}/{name}/n={n}/t={t}", name,
            ["eta", "--potential", spec_path(name), "--n", str(n), "--t", _f(t), "--alpha", _f(a)],
            lambda o, s=name, t=t, a=a: checks.check_eta(specs[s], t, a, o.results),
            _kernel_summary,
        ))
    # Monte Carlo: reject, exact and auto samplers, all with --format both
    sims = [
        ("reject", "double_well", 16, 1.0, 1.2 + rng.uniform(-0.02, 0.02), 0.05),
        ("reject", "zero", 64, 1.0, rng.uniform(-0.2, 0.2), 0.01),
        ("exact", "double_well", 64, 0.1, rng.uniform(-0.002, 0.002), 0.005),
        ("auto", "double_well", 16, 1.0, 0.5 + rng.uniform(-0.02, 0.02), 0.05),
    ]
    for method, name, n, t, a, h in sims:
        seed = rng.randrange(1 << 30)
        jobs.append(_cli(
            f"simulate/{method}/{name}/n={n}/t={t}", name,
            ["simulate", "--potential", spec_path(name), "--n", str(n), "--t", _f(t), "--alpha", _f(a),
             "--replicas", "100000", "--seed", str(seed), "--binwidth", _f(h), "--method", method],
            lambda o, m=method: checks.check_simulate(o.results, o.params, None if m == "auto" else m),
            lambda o: {
                "sample_mean": (o.results["sample_mean"], 6.0 * math.sqrt(o.results["sample_variance"] / o.results["accepted"])),
                "reference_mean": (o.results["ks_vs_quadrature"]["reference_mean"], 1e-8),
            },
        ))
    return jobs


# -- classify ----------------------------------------------------------------

GIBBS_TIMES = np.geomspace(0.02, 10.0, 9)
# recorded beta and t_c are compared relatively: the Phi2 path resolves
# beta to ~1e-6, so tighter would flag a change of search grid
TC_REL_TOL = 1e-5


def classify(rng: random.Random, spec_path, specs) -> list[Job]:
    from gibbsdyn import classify as cls

    jobs = []
    for name in BUILTINS + ("glued_2.5", "table"):
        jobs.append(_cli(
            f"tc/{name}", name,
            ["tc", "--potential", spec_path(name)],
            lambda o, s=name: checks.check_tc(TC_EXPECT[s], o.results),
            lambda o: {
                "beta": _relative(o.results["beta"], TC_REL_TOL),
                "t_c": _relative(o.results["t_c"], TC_REL_TOL),
                "gibbs_at_tc": (o.results["gibbs_at_tc"], None),
            },
        ))
    for name, betas in ORACLE_BETAS.items():
        for beta in betas:
            b = beta + rng.uniform(-0.1, 0.1)
            jobs.append(_cli(
                f"oracle/{name}/beta={beta}", name,
                ["oracle", "--potential", spec_path(name), "--beta", _f(b)],
                lambda o: checks.check_oracle(o.results),
                lambda o: {"agreement": (o.results["agreement"], None)},
            ))
    # gibbs_at sweeps mirror acceptance criterion 7; each repeats the
    # classification of one spec nine times
    for name in BUILTINS:
        for t0 in GIBBS_TIMES:
            t = float(t0) * (1.0 + rng.uniform(-0.02, 0.02))
            jobs.append(Job(
                id=f"gibbs_at/{name}/t={t0:.4g}", spec=name,
                call=lambda sp, s=name, t=t: cls.gibbs_at(sp[s], t),
                check=lambda o, s=name, t=t: checks.check_gibbs_at(o.value, t, T_C[s]),
                summary=lambda o: {"gibbs": (o.value, None)},
            ))
    return jobs


WORKLOADS = {"phase_diagram": phase_diagram, "finite_n": finite_n, "classify": classify}

# One small run of each command a workload uses, so that first-call costs
# land in set-up. Their outputs are not checked.
_WARMUP_ARGV = {
    "phase_diagram": [
        ["bad-scan", "--potential", "double_well", "--t", "0.3", "--window=-1,1", "--grid", "5"],
        ["limitpot", "--potential", "double_well", "--t", "0.3", "--window=-1,1", "--grid", "5"],
        ["traj", "--potential", "double_well", "--t", "0.3", "--alpha", "0.5"],
    ],
    "finite_n": [
        ["kernel", "--potential", "zero", "--n", "2", "--t", "1", "--alpha", "0", "--quad-grid", "64"],
        ["kernel", "--potential", "zero", "--n", "2", "--t", "0", "--alpha", "0", "--quad-grid", "64"],
        ["eta", "--potential", "double_well", "--n", "4", "--t", "1", "--alpha", "0", "--quad-grid", "64"],
        ["simulate", "--potential", "zero", "--n", "4", "--t", "1", "--alpha", "0", "--replicas", "2000",
         "--quad-grid", "64"],
    ],
    "classify": [
        ["tc", "--potential", "double_well"],
        ["oracle", "--potential", "double_well", "--beta", "3", "--grid", "21"],
    ],
}


def warmups(workload: str, spec_path) -> list[Job]:
    def unchecked(o):
        return []

    jobs = [
        Job(id=f"warmup/{argv[0]}", argv=[spec_path(a) if i == 2 else a for i, a in enumerate(argv)],
            check=unchecked, summary=unchecked)
        for argv in _WARMUP_ARGV[workload]
    ]
    if workload == "classify":
        from gibbsdyn import classify as cls

        jobs.append(Job(id="warmup/gibbs_at", call=lambda sp: cls.gibbs_at(sp["double_well"], 1.0),
                        check=unchecked, summary=unchecked))
    return jobs


def build(workload: str, seed: int, spec_path, specs) -> list[Job]:
    """The workload's jobs in their seeded order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng, spec_path, specs)
    ids = [j.id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in {workload}")
    rng.shuffle(jobs)
    return jobs


def spec_names(jobs) -> list[str]:
    return sorted({j.spec for j in jobs})
