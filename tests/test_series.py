import numpy as np
import pytest

from _helpers import series_derivative

from mscompile import EVEN, ODD, ParityError, TrigSeries
from mscompile.series import to_laurent


def test_eval_constant():
    s = TrigSeries(EVEN, (1.0,))
    assert s.evaluate(2.7) == pytest.approx(1.0, abs=1e-15)


def test_eval_half_plus_half_cos():
    s = TrigSeries(EVEN, (0.5, 0.5))
    assert s.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert s.evaluate(np.pi) == pytest.approx(0.0, abs=1e-15)


def test_eval_sine():
    s = TrigSeries(ODD, (0.0, 1.0))
    assert s.evaluate(np.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_derivative_values():
    s = TrigSeries(EVEN, (0.5, 0.5))
    assert series_derivative(s, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert series_derivative(s, np.pi / 2) == pytest.approx(-0.5, abs=1e-15)


def test_even_derivative_vanishes_at_pi():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = TrigSeries(EVEN, tuple(rng.normal(size=rng.integers(1, 10))))
        assert abs(series_derivative(s, np.pi)) < 1e-12 * max(1.0, np.abs(s.coeffs).max())


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(1)
    step = 1e-5
    for _ in range(30):
        deg = int(rng.integers(0, 13))
        parity = "even" if rng.random() < 0.5 else "odd"
        coeffs = rng.normal(size=deg + 1)
        if parity == "odd":
            coeffs[0] = 0.0
        # keep the third derivative bounded so the O(step^2) truncation of
        # the central difference stays below the 1e-8 tolerance
        k = np.arange(deg + 1)
        coeffs /= max(1.0, np.sum(np.abs(coeffs) * k**3) / 100.0)
        s = TrigSeries(parity, tuple(coeffs))
        for theta in rng.uniform(-np.pi, np.pi, 5):
            fd = (s.evaluate(theta + step) - s.evaluate(theta - step)) / (2 * step)
            assert series_derivative(s, theta) == pytest.approx(fd, abs=1e-8)


def test_parity_symmetry():
    rng = np.random.default_rng(2)
    even = TrigSeries(EVEN, tuple(rng.normal(size=7)))
    odd = TrigSeries(ODD, (0.0, *rng.normal(size=6)))
    thetas = rng.uniform(-10, 10, 1000)
    np.testing.assert_allclose(even.evaluate(-thetas), even.evaluate(thetas), atol=1e-14)
    np.testing.assert_allclose(odd.evaluate(-thetas), -odd.evaluate(thetas), atol=1e-14)


def test_periodicity():
    rng = np.random.default_rng(3)
    s = TrigSeries(EVEN, tuple(rng.normal(size=9)))
    thetas = rng.uniform(-5, 5, 200)
    np.testing.assert_allclose(s.evaluate(thetas + 2 * np.pi), s.evaluate(thetas), atol=1e-12)


def test_odd_series_rejects_constant_term():
    with pytest.raises(ParityError):
        TrigSeries(ODD, (0.3, 1.0))


def test_series_rejects_a_bad_parity_or_no_coefficients():
    with pytest.raises(ParityError, match="parity must be"):
        TrigSeries("cos", (1.0,))
    with pytest.raises(ValueError, match="at least one entry"):
        TrigSeries(EVEN, ())


def test_padding_never_lowers_the_degree():
    s = TrigSeries(ODD, (0.0, 1.0, 0.5))
    assert s.padded(4).coeffs == (0.0, 1.0, 0.5, 0.0, 0.0) and s.padded(2) == s
    with pytest.raises(ValueError, match="cannot pad degree 2 down to 1"):
        s.padded(1)


def test_to_laurent_even():
    p = to_laurent(TrigSeries(EVEN, (0.0, 1.0)))
    np.testing.assert_allclose(p, [0.5, 0.0, 0.5], atol=1e-15)  # z^-1, z^0, z^1


def test_to_laurent_odd():
    p = to_laurent(TrigSeries(ODD, (0.0, 1.0)))
    np.testing.assert_allclose(p, [0.5j, 0.0, -0.5j], atol=1e-15)


def test_laurent_values_match_series():
    rng = np.random.default_rng(5)
    s = TrigSeries(ODD, (0.0, *rng.normal(size=5)))
    p = to_laurent(s)
    assert p.shape == (2 * s.degree + 1,)
    thetas = rng.uniform(0, 2 * np.pi, 50)
    z = np.exp(1j * thetas)
    values = np.power.outer(z, np.arange(-s.degree, s.degree + 1)) @ p
    np.testing.assert_allclose(values.real, s.evaluate(thetas), atol=1e-13)
    # real on the circle: coeffs[k] == conj(coeffs[-k])
    np.testing.assert_allclose(p, np.conj(p[::-1]), atol=1e-12)
