"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 probes the bad-set scan of the double-well quartic on both sides
of the onset of the two-layer rate U(r) = V(r) + r^2/2 + (r - alpha)^2/(2t):
at alpha = 0 the r^2 coefficient of U is 1/(2t) - (beta - 1/2), so U turns
double-welled at t = 1/(2 beta - 1) = 1/7. The probes sit at the factors
0.945 and 1.05 of that onset (the scan is empty, then non-empty), and at
t = 0.27 and 0.30, where the scan is non-empty and the minimisers at
alpha = 0 agree with a dense brute-force scan. The classifier's closed form
t_c = 1/(beta - 1/2) = 2/7 lies a factor 2 above the onset; that gap is
recorded by the strict xfail in test_classify.

Criterion 6 compares the Monte Carlo law of spin 1 given that the
companions' magnetisation lies in the bin [alpha - h, alpha + h] with the
same binned law by quadrature (conftest.bin_averaged_kernel). At its
configuration the bin straddles the trough between the two magnetised
phases, so the bin law mixes the two side kernels and is far from the
exact-alpha kernel (KS ~0.11); the point-kernel comparison is checked for
h <= 0.01 in test_mc_sim.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import bin_averaged_kernel, brute_force_minimisers, phi2
from gibbsdyn import classify, kernels, mc_sim, paths, potential as pot, tilted

SQRT15 = math.sqrt(1.5)


@contextmanager
def report(criterion):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL")
        raise
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_crossover_gallery(builtin_specs):
    with report("1 (crossover gallery)"):
        r = classify.crossover_time(builtin_specs["cosine_beta1"], find_witness=False)
        assert r.t_c == pytest.approx(2.0, abs=1e-6)
        assert r.gibbs_at_tc == classify.GIBBS
        assert math.isinf(classify.crossover_time(builtin_specs["cosine_beta04"], find_witness=False).t_c)

        r = classify.crossover_time(builtin_specs["glued_beta1"], find_witness=False)
        assert r.t_c == pytest.approx(2.0, abs=1e-3)
        assert r.gibbs_at_tc == classify.NON_GIBBS

        assert classify.crossover_time(builtin_specs["cos_of_square"], find_witness=False).t_c == 0.0

        for name in ("zero", "r^2", "shallow_quartic"):
            assert math.isinf(classify.crossover_time(builtin_specs[name], find_witness=False).t_c)

        r = classify.crossover_time(builtin_specs["double_well"], find_witness=False)
        assert r.beta == pytest.approx(4.0, abs=1e-8)
        assert r.t_c == pytest.approx(2.0 / 7.0, abs=1e-6)


def test_criterion_1_bad_scan_probes(builtin_specs):
    with report("1 (bad-scan probes around the onset t = 1/(2 beta - 1))"):
        dw = builtin_specs["double_well"]
        beta = classify.crossover_time(dw, find_witness=False).beta
        onset = 1.0 / (2.0 * beta - 1.0)
        below = tilted.bad_set_scan(dw, 0.945 * onset, (-5, 5), 1001)
        assert below.empty, f"bad set below the onset: {below.intervals}"
        assert not tilted.bad_set_scan(dw, 1.05 * onset, (-5, 5), 1001).empty

        assert not tilted.bad_set_scan(dw, 0.30, (-5, 5), 1001).empty
        assert not tilted.bad_set_scan(dw, 0.27, (-5, 5), 1001).empty
        ms = tilted.global_minimisers(tilted.TiltedRate(dw, 0.27, 0.0))
        value, locations = brute_force_minimisers(dw, 0.27, 0.0)
        assert len(ms.locations) == 2 == len(locations)
        assert ms.locations == pytest.approx(locations, abs=1e-5)
        assert ms.value == pytest.approx(value, abs=1e-5)


def test_criterion_2_trajectory_equivalence(builtin_specs):
    with report("2 (two-layer/trajectory equivalence)"):
        rng = np.random.default_rng(77)
        specs = list(builtin_specs.values())
        for _ in range(20):
            spec = specs[rng.integers(len(specs))]
            t = float(rng.uniform(0.1, 3.0))
            alpha = float(rng.uniform(-3.0, 3.0))
            ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, alpha))
            trajs = paths.minimising_trajectories(spec, t, alpha)
            assert len(trajs) == len(ms.locations)
            for q, p in zip(ms.locations, trajs):
                want = tilted.eval_rate(tilted.TiltedRate(spec, t, alpha), q) - ms.value
                got = paths.path_rate(spec, t, alpha, p)
                assert got == pytest.approx(want, abs=2e-6)


def test_criterion_3_kernel_limits(zero, quadratic):
    with report("3 (kernel limits)"):
        k = kernels.evolved_kernel(quadratic, 1600, 1.0, 4.0)
        assert k.mean == pytest.approx(-2.0, abs=0.02)
        assert k.variance == pytest.approx(2.0, abs=0.05)
        for n in (2, 7, 64, 1000, 10_000):
            kz = kernels.evolved_kernel(zero, n, 1.0, 3.0)
            assert abs(kz.mean) < 1e-10
            assert abs(kz.variance - 2.0) < 1e-10
            assert kz.total_mass_defect < 1e-10


def test_criterion_4_selection_sequences(double_well):
    with report("4 (selection sequences)"):
        ladder = [50, 100, 200, 400, 800, 1600, 3200]
        minus = kernels.convergence_experiment(double_well, 1.0, 0.0, ladder, kernels.SEQ_MINUS)
        plus = kernels.convergence_experiment(double_well, 1.0, 0.0, ladder, kernels.SEQ_PLUS)
        assert minus[-1].w1_to_limit < 0.05
        assert plus[-1].w1_to_limit < 0.05
        limit_gap = abs(
            pot.deriv(double_well, -SQRT15, 1) - pot.deriv(double_well, SQRT15, 1)
        )
        assert abs(minus[-1].mean - plus[-1].mean) > 1.0
        assert limit_gap > 1.0


def test_criterion_5_nonsmooth_initial_kernel():
    with report("5 (non-smooth initial kernel)"):
        spec = pot.absolute()
        n = 10_000
        eps = 1.0 / math.sqrt(n - 1)
        plus = kernels.initial_kernel(spec, n, eps)
        minus = kernels.initial_kernel(spec, n, -eps)
        assert plus.mean == pytest.approx(-1.0, abs=0.05)
        assert minus.mean == pytest.approx(1.0, abs=0.05)
        assert plus.variance == pytest.approx(1.0, abs=0.05)
        assert minus.variance == pytest.approx(1.0, abs=0.05)


def test_criterion_6_monte_carlo_vs_quadrature(double_well):
    with report("6 (binned Monte Carlo vs bin-averaged quadrature)"):
        h = 0.05
        config = mc_sim.SimConfig(
            n=64, t=0.1, alpha_target=0.0, replicas=200_000, seed=20240, bin_halfwidth=h
        )
        emp = mc_sim.evolve_and_condition(config, double_well)
        ref = bin_averaged_kernel(double_well, 64, 0.1, 0.0, h)
        d = mc_sim.ks_distance(emp, ref)
        assert d < 0.05, f"KS = {d:.3f} between the binned sample and the bin-averaged kernel"


def test_criterion_7_property_suites(builtin_specs, glued1):
    with report("7 (property suites)"):
        rng = np.random.default_rng(123)

        # second-difference-quotient algebra
        for _ in range(50):
            x, y, z = np.sort(rng.uniform(-10, 10, 3))
            if y - x < 1e-3 or z - y < 1e-3:
                continue
            assert phi2(lambda s: s * s, x, y, z) == pytest.approx(1.0, rel=1e-9)
            assert phi2(lambda s: 3 * s + 5, x, y, z) == pytest.approx(0.0, abs=1e-9)
            th, ka = rng.uniform(-3, 3, 2)
            f, g = (lambda s: s**3), (lambda s: math.cos(s))
            assert phi2(lambda s: th * f(s) + ka * g(s), x, y, z) == pytest.approx(
                th * phi2(f, x, y, z) + ka * phi2(g, x, y, z), rel=1e-8, abs=1e-8
            )

        # convexity correspondence
        triples = np.sort(rng.uniform(-3, 3, (100, 3)), axis=1)
        triples = triples[(np.diff(triples, axis=1) > 1e-3).all(axis=1)]
        assert min(phi2(lambda s: s * s, *tr) for tr in triples) >= -1e-12
        assert min(phi2(math.exp, *tr) for tr in triples) >= -1e-12
        assert min(phi2(lambda s: -s * s, *tr) for tr in triples) < 0

        # tilt/curvature equivalence on 50 randomised piecewise quadratics
        from test_classify import make_piecewise_quadratic

        agreements = 0
        for _ in range(50):
            f, bound = make_piecewise_quadratic(rng)
            margin = rng.uniform(0.4, 1.2)
            beta = bound + (margin if rng.random() < 0.5 else -margin)
            if beta <= 0.05:
                beta = bound + margin
            agreements += classify.equivalence_oracle(f, float(beta), (-6, 6), 201)
        assert agreements == 50

        # kernel normalisation on quadrature calls across families
        for spec in builtin_specs.values():
            k = kernels.evolved_kernel(spec, 30, 0.8, 0.4)
            assert k.total_mass_defect <= 1e-8
            k0 = kernels.initial_kernel(spec, 30, 0.4)
            assert k0.total_mass_defect <= 1e-8

        # seeded determinism of the Monte Carlo harness
        cfg = mc_sim.SimConfig(n=16, t=1.0, alpha_target=0.0, replicas=20_000, seed=5)
        a = mc_sim.evolve_and_condition(cfg, builtin_specs["zero"])
        b = mc_sim.evolve_and_condition(cfg, builtin_specs["zero"])
        assert np.array_equal(a.samples, b.samples)

        # monotone Gibbs-loss indicator over a t-grid for every builtin
        ts = np.geomspace(0.02, 10.0, 9)
        for name, spec in builtin_specs.items():
            flags = [classify.gibbs_at(spec, float(t)) for t in ts]
            assert flags == sorted(flags, reverse=True), name
