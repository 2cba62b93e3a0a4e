import numpy as np
import pytest
from _helpers import series_derivative

from mscompile import (
    ConstraintSet,
    FittingError,
    constraint_set_crot,
    crot_angles,
    fit_A,
    fit_weight_dependent,
    weighted_params,
)
from mscompile.fitting import solve_series
from mscompile.subspace import compute_thetas

ALPHAS = (0.3, np.pi / 2, np.pi, 2 * np.pi)


def test_constraint_set_n2():
    cs = constraint_set_crot(2, 1.0)
    assert cs.degree == 1
    assert cs.num_constraints == 2
    points = {round(t, 9): (v, pin) for t, v, pin in cs.points}
    assert points[0.0] == (pytest.approx(1.0), False)
    assert points[round(np.pi, 9)] == (pytest.approx(np.cos(0.5)), False)


def test_constraint_set_n7():
    cs = constraint_set_crot(7, np.pi)
    assert cs.num_constraints == 7
    ts = [t for t, _, _ in cs.points]
    np.testing.assert_allclose(ts, [np.pi / 7, 3 * np.pi / 7, 5 * np.pi / 7, np.pi], atol=1e-9)
    pins = [t for t, _, pin in cs.points if pin]
    np.testing.assert_allclose(pins, [np.pi / 7, 3 * np.pi / 7, 5 * np.pi / 7], atol=1e-9)
    assert dict((round(t, 6), v) for t, v, _ in cs.points)[round(np.pi, 6)] == pytest.approx(0.0)


def test_constraint_set_n6():
    cs = constraint_set_crot(6, 0.7)
    ts = [t for t, _, _ in cs.points]
    np.testing.assert_allclose(ts, [0.0, np.pi / 3, 2 * np.pi / 3, np.pi], atol=1e-9)
    pins = [t for t, _, pin in cs.points if pin]
    np.testing.assert_allclose(pins, [np.pi / 3, 2 * np.pi / 3], atol=1e-9)
    assert cs.num_constraints == 6


def test_constraint_count_identity():
    for n in range(2, 41):
        assert constraint_set_crot(n, 1.1).num_constraints == n


def test_fit_n2_closed_form():
    for alpha in ALPHAS:
        series = fit_A(2, alpha)
        want = ((1 + np.cos(alpha / 2)) / 2, (1 - np.cos(alpha / 2)) / 2)
        np.testing.assert_allclose(series.coeffs, want, atol=1e-13)


def test_fit_identity_angle():
    series = fit_A(5, 0.0)
    grid = np.linspace(0, 2 * np.pi, 400)
    np.testing.assert_allclose(series.evaluate(grid), 1.0, atol=1e-12)


def test_fit_n7_pi_hits_pins():
    series = fit_A(7, np.pi)
    thetas = compute_thetas(7, np.pi / 7, -np.pi / 7)
    for q, theta in enumerate(thetas):
        want = 0.0 if q == 6 else 1.0
        assert series.evaluate(theta) == pytest.approx(want, abs=1e-10)
        assert series_derivative(series, theta) == pytest.approx(0.0, abs=1e-9)


def test_fit_residuals_and_modulus():
    grid = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    for n in range(2, 13):
        for alpha in ALPHAS:
            series = fit_A(n, alpha)
            assert series.degree == n - 1
            cs = constraint_set_crot(n, alpha)
            for theta, value, pin in cs.points:
                assert series.evaluate(theta) == pytest.approx(value, abs=1e-10)
                if pin:
                    assert series_derivative(series, theta) == pytest.approx(0.0, abs=1e-10)
            assert np.max(np.abs(series.evaluate(grid))) <= 1 + 1e-9


def test_solve_series_singular():
    theta = 0.8
    cs = ConstraintSet(((theta, 1.0, False), (theta, 0.5, False)), degree=1)
    with pytest.raises(FittingError):
        solve_series(cs)


def test_gate_target_validation():
    with pytest.raises(ValueError):
        crot_angles(1, 0.3)
    with pytest.raises(ValueError, match="need n >= 2"):
        fit_weight_dependent(1, (0.1,))
    with pytest.raises(ValueError, match="one angle per control weight"):
        fit_weight_dependent(3, (0.1, 0.2))


def test_weighted_params_avoid_mirror_collisions():
    for n in range(2, 13):
        thetas = np.mod(compute_thetas(n, *weighted_params(n)), 2 * np.pi)
        assert len(np.unique(np.round(thetas, 9))) == n
        for i, t in enumerate(thetas):
            # no theta_q may coincide with -theta_q' (mod 2*pi), itself included
            assert not np.any(np.abs((t + thetas) % (2 * np.pi)) < 1e-9)
            assert not np.any(np.abs((t + thetas) % (2 * np.pi) - 2 * np.pi) < 1e-9)


def test_weight_dependent_zero_profile():
    a, b = fit_weight_dependent(3, (0.0, 0.0, 0.0))
    grid = np.linspace(0, 2 * np.pi, 200)
    np.testing.assert_allclose(a.evaluate(grid), 1.0, atol=1e-11)
    np.testing.assert_allclose(b.evaluate(grid), 0.0, atol=1e-11)


def test_weight_dependent_pins():
    alphas = (0.4, 1.1, 2.0)
    a, b = fit_weight_dependent(3, alphas)
    assert max(a.degree, b.degree) == 6
    thetas = compute_thetas(3, *weighted_params(3))
    for theta, alpha in zip(thetas, alphas):
        assert a.evaluate(theta) == pytest.approx(np.cos(alpha / 2), abs=1e-10)
        assert b.evaluate(theta) == pytest.approx(-np.sin(alpha / 2), abs=1e-10)
        assert series_derivative(a, theta) == pytest.approx(0.0, abs=1e-9)
        assert series_derivative(b, theta) == pytest.approx(0.0, abs=1e-9)
    grid = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    assert np.max(a.evaluate(grid) ** 2 + b.evaluate(grid) ** 2) <= 1 + 1e-9
