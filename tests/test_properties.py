"""Property tests: compile any crot angle, complete any admissible (A, B),
and the theta -> -theta mirror that lets extraction check half its grid."""

import numpy as np
import pytest
from _helpers import quadruple_matrix, random_admissible_series
from hypothesis import given, settings, strategies as st

from mscompile import (
    ODD,
    ExtractionError,
    TrigSeries,
    complete,
    crot_angles,
    evaluate_plan,
    extract_angles,
    fit_A,
    fit_weight_dependent,
)
from mscompile import synthesis
from mscompile.su2 import norm_2x2, rz
from mscompile.subspace import compute_thetas

GRID = np.linspace(0, 2 * np.pi, 1024, endpoint=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 16),
    alpha=st.floats(-2 * np.pi, 2 * np.pi, exclude_min=True),
)
def test_crot_blocks_match_for_any_angle(n, alpha):
    plan = crot_angles(n, alpha)
    for q, theta in enumerate(compute_thetas(n, plan.tau, plan.h)):
        want = rz(alpha) if q == n - 1 else np.eye(2)
        np.testing.assert_allclose(evaluate_plan(plan.phis, theta), want, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), with_b=st.booleans())
def test_completion_is_normalized(seed, with_b):
    a, b = random_admissible_series(np.random.default_rng(seed), max_degree=8, with_b=with_b)
    c, d = complete(a, b, +1)
    total = a(GRID) ** 2 + b(GRID) ** 2 + c(GRID) ** 2 + d(GRID) ** 2
    assert np.max(np.abs(total - 1)) < 1e-10


Z = np.diag([1.0, -1.0]).astype(complex)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(0, 32),
    theta=st.floats(0, 2 * np.pi),
)
def test_train_mirrors_under_z(seed, half, theta):
    """F(2*pi - theta) = Z F(theta) Z for any angles and an even pulse count."""
    phis = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, 2 * half + 1)
    mirrored = evaluate_plan(phis, 2 * np.pi - theta)
    assert np.linalg.norm(mirrored - Z @ evaluate_plan(phis, theta) @ Z, ord=2) <= 1e-12


def _quadruples():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8, 12):
        for alpha in (np.pi, 0.3, rng.uniform(-2 * np.pi, 2 * np.pi)):
            a, b = fit_A(n, alpha), TrigSeries.zero(ODD)
            yield (a, b, *complete(a, b, -1 if np.sin(alpha / 2) > 0 else +1)), n - 1
    for n in (2, 3, 4, 6):
        for _ in range(3):
            a, b = fit_weight_dependent(n, rng.uniform(-np.pi, np.pi, n))
            yield (a, b, *complete(a, b, +1)), 2 * n


def test_half_grid_finds_the_full_grid_maximum():
    """The miss over theta_j, j <= M/2, peaks where the miss over all M points does."""
    for quad, degree in _quadruples():
        phis = extract_angles(*quad, degree)
        m = max(4 * (degree + 1), 32)
        thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        misses = norm_2x2(np.stack([evaluate_plan(phis, t) - quadruple_matrix(*quad, t) for t in thetas]))
        assert abs(np.max(misses) - np.max(misses[: m // 2 + 1])) <= 1e-13, degree


def test_check_simulates_every_grid_point_or_its_mirror(monkeypatch):
    """Each theta_j = 2*pi*j/M is simulated, or 2*pi - theta_j is."""
    seen = []

    def spy(phis, theta):
        seen.append(theta)
        return evaluate_plan(phis, theta)

    monkeypatch.setattr(synthesis, "evaluate_plan", spy)
    for quad, degree in _quadruples():
        seen.clear()
        extract_angles(*quad, degree)
        m = max(4 * (degree + 1), 32)
        grid = np.exp(2j * np.pi * np.arange(m) / m)
        points = np.exp(1j * np.array(seen))
        gap = np.abs(grid[:, None] - np.concatenate([points, points.conj()])[None, :]).min(axis=1)
        assert np.max(gap) < 1e-12, degree


@pytest.mark.parametrize("which", range(4))
def test_quadruple_off_normalization_is_an_extraction_error(which):
    """A 1e-6 change to one coefficient of A, B, C or D is caught on the half grid."""
    a, b = fit_weight_dependent(4, [0.4, -1.1, 2.1, -0.6])
    quad = [a, b, *complete(a, b, +1)]
    s = quad[which]
    coeffs = np.array(s.coeffs)
    coeffs[-1] += 1e-6
    quad[which] = TrigSeries(s.parity, tuple(coeffs))
    with pytest.raises(ExtractionError, match="reconstruction error"):
        extract_angles(*quad, 8)
