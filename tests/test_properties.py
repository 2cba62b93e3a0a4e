"""Property tests: compile any crot angle and any near-uniform weighted
profile, normalize any quadruple, and the theta -> -theta mirror that lets
extraction check half its grid."""

import numpy as np
import pytest
from _helpers import crot_targets, node_block_miss, quadruple_matrix, weighted_targets
from hypothesis import given, settings, strategies as st

from mscompile import (
    Circuit,
    ExtractionError,
    Gate,
    TrigSeries,
    build_crot_circuit,
    crot_angles,
    evaluate_plan,
    extract_angles,
    verify_circuit,
    weighted_angles,
)
from mscompile import synthesis
from mscompile.su2 import norm_2x2
from mscompile.synthesis import _crot_quadruple, _weighted_quadruple

GRID = np.linspace(0, 2 * np.pi, 1024, endpoint=False)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_crot_blocks_match_for_any_angle(n, seed):
    """alpha log-uniform from 1e-9 to pi away from 0 or +-2*pi, either side."""
    rng = np.random.default_rng(seed)
    offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, np.log10(np.pi))
    alpha = rng.choice([0.0, 2 * np.pi, -2 * np.pi]) + offset
    assert node_block_miss(crot_angles(n, alpha), crot_targets(n, alpha)) <= 1e-9


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 16),
    base=st.one_of(st.floats(-np.pi, np.pi), st.sampled_from([2 * np.pi, -2 * np.pi])),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_blocks_match_for_near_uniform_profiles(n, base, seed):
    """Profiles base + 10^U(-9, 0) * noise, near uniform or near 2*pi."""
    rng = np.random.default_rng(seed)
    alphas = base + 10.0 ** rng.uniform(-9.0, 0.0) * rng.uniform(-1.0, 1.0, n)
    assert node_block_miss(weighted_angles(n, alphas), weighted_targets(alphas)) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
def test_completion_is_normalized(seed, weighted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    if weighted:
        a, b, c, d = _weighted_quadruple(n, rng.uniform(-np.pi, np.pi, n))
    else:
        a, b, c, d = _crot_quadruple(n, rng.uniform(-2 * np.pi, 2 * np.pi))
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
            yield _crot_quadruple(n, alpha)
    for n in (2, 3, 4, 6):
        for _ in range(3):
            yield _weighted_quadruple(n, rng.uniform(-np.pi, np.pi, n))


def test_half_grid_finds_the_full_grid_maximum():
    """The miss over theta_j, j <= M/2, peaks where the miss over all M points does."""
    for quad in _quadruples():
        phis = extract_angles(*quad)
        degree = max(s.degree for s in quad)
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
    for quad in _quadruples():
        seen.clear()
        extract_angles(*quad)
        degree = max(s.degree for s in quad)
        m = max(4 * (degree + 1), 32)
        grid = np.exp(2j * np.pi * np.arange(m) / m)
        points = np.exp(1j * np.array(seen))
        gap = np.abs(grid[:, None] - np.concatenate([points, points.conj()])[None, :]).min(axis=1)
        assert np.max(gap) < 1e-12, degree


@pytest.mark.parametrize("which", range(4))
def test_quadruple_off_normalization_is_an_extraction_error(which):
    """A 1e-6 change to one coefficient of A, B, C or D is caught on the half grid."""
    quad = list(_weighted_quadruple(4, [0.4, -1.1, 2.1, -0.6]))
    s = quad[which]
    coeffs = np.array(s.coeffs)
    coeffs[-1] += 1e-6
    quad[which] = TrigSeries(s.parity, tuple(coeffs))
    with pytest.raises(ExtractionError, match="reconstruction error"):
        extract_angles(*quad)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-9.0, 1.0))
def test_worst_block_bounds_phase_distance(n, seed, log_scale):
    """For unitary V, |tr(V^dag U)| >= dim * (1 - worst_block): the distance
    test is implied by the block test.  V is a weighted gate with drawn
    angles on a drawn target, so its blocks differ by control weight; U is
    its compiled train followed by rotations and a pulse of angles about
    10^log_scale."""
    rng = np.random.default_rng(seed)
    alphas, target = tuple(rng.uniform(-np.pi, np.pi, n)), int(rng.integers(n))
    kicks = [Gate(str(rng.choice(["RX", "RY", "RZ"])), int(rng.integers(n)), 10.0**log_scale * rng.normal()) for _ in range(3)]
    train = build_crot_circuit(weighted_angles(n, alphas), target).gates
    circ = Circuit(n, train + (*kicks, Gate.ms(10.0**log_scale * rng.normal())), target)
    verdict = verify_circuit(circ, "weighted", n, alphas=alphas)
    assert verdict.phase_distance <= verdict.worst_block + 1e-15
