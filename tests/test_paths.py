import math

import numpy as np
import pytest

from gibbsdyn import paths, potential as pot, tilted
from gibbsdyn.errors import DomainError

SQRT15 = math.sqrt(1.5)


def test_optimal_path_shape():
    p = paths.optimal_path(1.0, 2.0, 4.0, grid_n=16)
    assert p.t_grid[0] == 0.0
    assert p.t_grid[-1] == pytest.approx(4.0 * (1 - 1 / 16))
    assert p.start == 1.0
    assert p.endpoint_alpha == 2.0
    assert p.is_admissible()


def test_kinetic_energy_examples():
    # constant path: zero kinetic term
    assert paths.kinetic_energy(paths.optimal_path(2.0, 2.0, 1.0)) == 0.0
    # line 2s on [0,1): (1/2) int 4 = 2
    assert paths.kinetic_energy(paths.optimal_path(0.0, 2.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
    # line 1 + s/4 on [0,4): (1/2) int (1/4)^2 over [0,4] = 1/8
    assert paths.kinetic_energy(paths.optimal_path(1.0, 2.0, 4.0)) == pytest.approx(0.125, rel=1e-12)


def test_path_rate_examples(zero):
    const = paths.optimal_path(0.0, 0.0, 1.0)
    assert paths.path_rate(zero, 1.0, 0.0, const) == pytest.approx(0.0, abs=1e-12)
    # optimal start for V=0, t=1, alpha=2 is q = alpha/(1+t) = 1 with zero rate
    best = paths.optimal_path(1.0, 2.0, 1.0)
    assert paths.path_rate(zero, 1.0, 2.0, best) == pytest.approx(0.0, abs=1e-12)
    # starting at 0 instead costs 0 + 0 + 2 - C with C = alpha^2/(2(1+t)) = 1
    off = paths.optimal_path(0.0, 2.0, 1.0)
    assert paths.path_rate(zero, 1.0, 2.0, off) == pytest.approx(1.0, abs=1e-12)


def test_path_rate_endpoint_mismatch_is_inf(zero):
    p = paths.optimal_path(0.0, 1.0, 1.0)
    assert paths.path_rate(zero, 1.0, 2.0, p) == math.inf


def test_path_rate_jump_at_end_is_inf(zero):
    ts = np.arange(64) * (1.0 / 64)
    vals = np.zeros(64)
    jumpy = paths.PathOnGrid(t_grid=ts, values=vals, endpoint_alpha=2.0, t_end=1.0)
    assert not jumpy.is_admissible()
    assert paths.path_rate(zero, 1.0, 2.0, jumpy) == math.inf


def test_path_grid_validation():
    with pytest.raises(DomainError):
        paths.PathOnGrid(t_grid=np.array([0.0, 0.5, 0.25]), values=np.zeros(3), endpoint_alpha=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        paths.PathOnGrid(t_grid=np.array([0.1, 0.5]), values=np.zeros(2), endpoint_alpha=0.0, t_end=1.0)
    with pytest.raises(DomainError):
        paths.optimal_path(0.0, 1.0, -1.0)


def test_two_layer_equality_random(builtin_specs):
    # rate of the straight line from (0, r) equals the normalised two-layer
    # rate of r, for any r
    rng = np.random.default_rng(23)
    specs = list(builtin_specs.values())
    for _ in range(20):
        spec = specs[rng.integers(len(specs))]
        r = float(rng.uniform(-2.5, 2.5))
        alpha = float(rng.uniform(-2.5, 2.5))
        t = float(rng.uniform(0.1, 3.0))
        tr = tilted.TiltedRate(spec, t, alpha)
        ms = tilted.global_minimisers(tr)
        want = tilted.eval_rate(tr, r) - ms.value
        got = paths.path_rate(spec, t, alpha, paths.optimal_path(r, alpha, t))
        assert got == pytest.approx(want, abs=2e-6)


def test_hat_perturbations_increase_rate(zero):
    rng = np.random.default_rng(31)
    t, alpha, r = 1.0, 2.0, 0.5
    base = paths.optimal_path(r, alpha, t, grid_n=256)
    base_rate = paths.path_rate(zero, t, alpha, base)
    for _ in range(20):
        center = rng.uniform(0.1, 0.9)
        width = rng.uniform(0.05, min(center, 1 - center))
        height = rng.uniform(-0.5, 0.5)
        if abs(height) < 1e-3:
            continue
        hat = np.maximum(0.0, 1.0 - np.abs(base.t_grid - center) / width) * height
        bent = paths.PathOnGrid(
            t_grid=base.t_grid, values=base.values + hat, endpoint_alpha=alpha, t_end=t
        )
        assert paths.path_rate(zero, t, alpha, bent) > base_rate + 1e-8


def test_minimising_trajectories_examples(zero, quadratic, double_well):
    single = paths.minimising_trajectories(zero, 1.0, 2.0)
    assert len(single) == 1
    assert single[0].start == pytest.approx(1.0, abs=1e-9)

    quad = paths.minimising_trajectories(quadratic, 1.0, 4.0)
    assert len(quad) == 1
    assert quad[0].start == pytest.approx(1.0, abs=1e-9)

    pair = paths.minimising_trajectories(double_well, 1.0, 0.0)
    assert len(pair) == 2
    assert pair[0].start == pytest.approx(-SQRT15, abs=1e-8)
    assert pair[1].start == pytest.approx(SQRT15, abs=1e-8)
    r0 = paths.path_rate(double_well, 1.0, 0.0, pair[0])
    r1 = paths.path_rate(double_well, 1.0, 0.0, pair[1])
    assert r0 == pytest.approx(0.0, abs=1e-6)
    assert abs(r0 - r1) < 1e-6


def test_bifurcation_correspondence(builtin_specs):
    # trajectory count equals two-layer minimiser count above and below the
    # first bifurcation of each builtin
    probes = {
        "double_well": (0.1, 1.0),
        "cosine_beta1": (0.5, 2.5),
        "glued_beta1": (0.5, 2.5),
        "r^2": (0.5, 3.0),
    }
    for name, (t_lo, t_hi) in probes.items():
        spec = builtin_specs[name]
        for t in (t_lo, t_hi):
            ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, 0.0))
            trajs = paths.minimising_trajectories(spec, t, 0.0)
            assert len(trajs) == len(ms.locations), (name, t)


def test_csv_rows_include_endpoint():
    p = paths.optimal_path(0.0, 1.0, 1.0, grid_n=8)
    s, phi = paths.path_columns(p)
    assert len(s) == len(phi) == 9
    assert (s[-1], phi[-1]) == (1.0, 1.0)


def test_flat_envelope_paths_all_have_zero_rate(glued1):
    # the continuum of minimisers of glued_beta1 at t = 1, alpha = 0 is
    # reported by a few refined contacts: one zero-rate straight path each
    ms = tilted.global_minimisers(tilted.TiltedRate(glued1, 1.0, 0.0))
    trajs = paths.minimising_trajectories(glued1, 1.0, 0.0)
    assert 2 <= len(trajs) == len(ms.locations) <= 8
    assert [paths.path_rate(glued1, 1.0, 0.0, p) for p in trajs] == pytest.approx([0.0] * len(trajs), abs=1e-9)
