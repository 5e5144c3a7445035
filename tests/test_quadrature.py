import numpy as np
import pytest

from gibbsdyn import quadrature
from gibbsdyn.quadrature import DEFAULT_DROP, EXPAND_GROW


def recording(log_f):
    """log_f, and the list of (lo, hi) coarse windows it is called on."""
    windows = []

    def wrapped(xs):
        windows.append((float(xs[0]), float(xs[-1])))
        return log_f(xs)

    return wrapped, windows


def test_expanding_localize_on_a_cold_window_is_localize():
    def log_f(x):
        return -((x - 0.3) ** 2)

    got = quadrature.expanding_localize(log_f, -20.0, 20.0, 513)
    assert got == quadrature.localize(log_f, -20.0, 20.0, 513, DEFAULT_DROP)
    lo, hi, top = got
    assert lo < 0.3 - np.sqrt(DEFAULT_DROP) < 0.3 + np.sqrt(DEFAULT_DROP) < hi
    assert top == pytest.approx(0.0, abs=1e-3)


def test_expanding_localize_grows_each_hot_edge():
    # both edges hot: the width grows by EXPAND_GROW per round until x^2 > DEFAULT_DROP at both ends
    log_f, windows = recording(lambda x: -(x**2))
    got = quadrature.expanding_localize(log_f, -1.0, 1.0, 129)
    assert len(windows) > 2
    for (lo0, hi0), (lo1, hi1) in zip(windows, windows[1:]):
        assert hi1 - lo1 == pytest.approx(EXPAND_GROW * (hi0 - lo0), rel=1e-12)
        assert lo1 + hi1 == pytest.approx(lo0 + hi0, abs=1e-12)
    assert got == quadrature.localize(lambda x: -(x**2), *windows[-1], 129)

    # only the right edge hot: the left edge stays, the right moves by (EXPAND_GROW - 1)/2 x the width
    log_f, windows = recording(lambda x: -((x - 3.0) ** 2) + 10.0 * x)
    quadrature.expanding_localize(log_f, -10.0, 4.0, 129)
    (lo0, hi0), (lo1, hi1) = windows[:2]
    assert lo1 == lo0
    assert hi1 == pytest.approx(hi0 + 0.5 * (EXPAND_GROW - 1.0) * (hi0 - lo0), rel=1e-12)


@pytest.mark.parametrize("localize", [quadrature.localize, quadrature.expanding_localize])
def test_nowhere_finite_log_integrand_raises(localize):
    with pytest.raises(ValueError, match="nowhere finite"):
        localize(lambda x: np.full_like(x, -np.inf), -1.0, 1.0, 65)


def test_ten_hot_rounds_raise():
    # a log-integrand that grows without bound keeps its right edge hot
    log_f, windows = recording(lambda x: 50.0 * x)
    with pytest.raises(ValueError, match="could not bracket"):
        quadrature.expanding_localize(log_f, -1.0, 1.0, 65)
    assert len(windows) == 10
