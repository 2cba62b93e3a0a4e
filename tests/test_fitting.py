import numpy as np
import pytest
from _helpers import series_derivative, solve_crot_pins, solve_weighted_pins
from hypothesis import given, settings, strategies as st

from mscompile import (
    crot_angles,
    fit_A,
    fit_weight_dependent,
    weighted_params,
)
from mscompile.subspace import compute_thetas, default_params

ALPHAS = (0.3, np.pi / 2, np.pi, 2 * np.pi)
ORACLE_ALPHAS = (1e-9, -1e-9, 1e-6, -1e-6, 1e-4, 0.3, np.pi, 2 * np.pi - 1e-6, 2 * np.pi, -5.94)
FOUR_K = np.linspace(0, 2 * np.pi, 4096, endpoint=False)


def _crot_nodes(n):
    """The crot nodes folded into [0, pi], ascending."""
    folded = np.sort(np.abs(np.angle(np.exp(1j * np.array(compute_thetas(n, *default_params(n)))))))
    return folded[np.append(True, np.diff(folded) > 1e-9)]


def _assert_pins(series, thetas, values, atol):
    np.testing.assert_allclose(series.evaluate(np.asarray(thetas)), values, rtol=0, atol=atol)
    np.testing.assert_allclose(series_derivative(series, np.asarray(thetas)), 0.0, rtol=0, atol=atol)


def test_crot_nodes_n2():
    np.testing.assert_allclose(_crot_nodes(2), [0.0, np.pi], atol=1e-9)
    series = fit_A(2, 1.0)
    assert series.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert series.evaluate(np.pi) == pytest.approx(np.cos(0.5), abs=1e-15)


def test_crot_nodes_n7():
    np.testing.assert_allclose(
        _crot_nodes(7), [np.pi / 7, 3 * np.pi / 7, 5 * np.pi / 7, np.pi], atol=1e-9
    )
    _assert_pins(fit_A(7, np.pi), _crot_nodes(7), [1.0, 1.0, 1.0, 0.0], atol=1e-14)


def test_crot_nodes_n6():
    np.testing.assert_allclose(
        _crot_nodes(6), [0.0, np.pi / 3, 2 * np.pi / 3, np.pi], atol=1e-9
    )
    _assert_pins(fit_A(6, 0.7), _crot_nodes(6), [1.0, 1.0, 1.0, np.cos(0.35)], atol=1e-14)


def test_crot_nodes_equispaced():
    # the closed form rests on this: N nodes, spacing 2*pi/N, one of them at pi
    for n in range(2, 41):
        nodes = np.sort(np.mod(compute_thetas(n, *default_params(n)), 2 * np.pi))
        np.testing.assert_allclose(np.diff(nodes), 2 * np.pi / n, atol=1e-12)
        assert np.min(np.abs(nodes - np.pi)) < 1e-12
        assert fit_A(n, 1.1).degree == n - 1


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
        thetas = compute_thetas(n, *default_params(n))
        for alpha in ALPHAS:
            series = fit_A(n, alpha)
            assert series.degree == n - 1
            want = [1.0] * (n - 1) + [np.cos(alpha / 2)]
            _assert_pins(series, thetas, want, atol=1e-10)
            assert np.max(np.abs(series.evaluate(grid))) <= 1 + 1e-9


@pytest.mark.parametrize("n", [*range(2, 41), 64, 128, 256])
def test_fit_A_matches_the_pin_solve(n):
    for alpha in ORACLE_ALPHAS:
        got = fit_A(n, alpha).coeffs
        np.testing.assert_allclose(got, solve_crot_pins(n, alpha), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 17))
def test_fit_weight_dependent_matches_the_pin_solve(n):
    rng = np.random.default_rng(1100 + n)
    thetas = compute_thetas(n, *weighted_params(n))
    profiles = [rng.uniform(-np.pi, np.pi, n), rng.uniform(-2 * np.pi, 2 * np.pi, n)]
    profiles += [0.7 + 1e-6 * rng.normal(size=n), 1e-6 * rng.normal(size=n)]
    for alphas in profiles:
        a, b = fit_weight_dependent(n, alphas)
        want_a, want_b = solve_weighted_pins(thetas, alphas)
        np.testing.assert_allclose(a.coeffs, want_a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(b.coeffs, want_b[: 2 * n], rtol=0, atol=1e-13)
        assert abs(want_b[2 * n]) <= 1e-15


@pytest.mark.parametrize("alpha", [1e-9, -1e-7, 1e-6])
def test_dips_keep_full_relative_precision_at_small_angles(alpha):
    # the dip 1 - A(t_j) is alpha^2/8 to relative 2e-14 here; forming it as
    # 1 - cos(alpha/2) would lose every digit at alpha = 1e-9
    kappa = alpha**2 / 8
    for n in (2, 7, 64):
        k = np.arange(1, n)
        want = -kappa * 2 * (1 - k / n) / n * (-1.0) ** k  # A - 1 = -kappa * F_N(theta - pi)
        np.testing.assert_allclose(fit_A(n, alpha).coeffs[1:], want, rtol=1e-12, atol=0)
        k = np.arange(1, 2 * n)
        theta_0 = compute_thetas(n, *weighted_params(n))[0]
        want = -kappa * 4 * (1 - k / (2 * n)) / (2 * n) * np.cos(k * theta_0)  # dips at +-theta_0
        a, _ = fit_weight_dependent(n, [alpha] + [0.0] * (n - 1))
        np.testing.assert_allclose(a.coeffs[1:], want, rtol=0, atol=1e-12 * kappa)


_SIGNED_LOG_ANGLE = st.tuples(
    st.floats(-9, float(np.log10(2 * np.pi))), st.sampled_from((-1.0, 1.0))
).map(lambda p: p[1] * 10.0 ** p[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(2, 40), st.sampled_from((64, 128, 256))), alpha=_SIGNED_LOG_ANGLE)
def test_crot_fit_meets_every_pin_and_stays_in_the_unit_disk(n, alpha):
    a = fit_A(n, alpha)
    thetas = compute_thetas(n, *default_params(n))
    _assert_pins(a, thetas, [1.0] * (n - 1) + [np.cos(alpha / 2)], atol=1e-13 * n)
    assert np.max(a.evaluate(FOUR_K) ** 2) <= 1 + 1e-13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 32),
    alpha=_SIGNED_LOG_ANGLE,
    spread=st.lists(_SIGNED_LOG_ANGLE, min_size=32, max_size=32),
    near_uniform=st.booleans(),
)
def test_weighted_fit_meets_every_pin_and_stays_in_the_unit_disk(n, alpha, spread, near_uniform):
    spread = np.array(spread[:n])
    alphas = alpha + 1e-6 * spread if near_uniform else spread
    a, b = fit_weight_dependent(n, alphas)
    thetas = compute_thetas(n, *weighted_params(n))
    _assert_pins(a, thetas, np.cos(alphas / 2), atol=1e-13 * n)
    _assert_pins(b, thetas, -np.sin(alphas / 2), atol=1e-13 * n)
    assert np.max(a.evaluate(FOUR_K) ** 2 + b.evaluate(FOUR_K) ** 2) <= 1 + 1e-13


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
    assert max(a.degree, b.degree) == 5
    thetas = compute_thetas(3, *weighted_params(3))
    for theta, alpha in zip(thetas, alphas):
        assert a.evaluate(theta) == pytest.approx(np.cos(alpha / 2), abs=1e-10)
        assert b.evaluate(theta) == pytest.approx(-np.sin(alpha / 2), abs=1e-10)
        assert series_derivative(a, theta) == pytest.approx(0.0, abs=1e-9)
        assert series_derivative(b, theta) == pytest.approx(0.0, abs=1e-9)
    grid = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    assert np.max(a.evaluate(grid) ** 2 + b.evaluate(grid) ** 2) <= 1 + 1e-9
