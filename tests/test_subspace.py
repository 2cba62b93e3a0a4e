import numpy as np
import pytest

from mscompile import compute_thetas, default_params, phase_reset_ok


def test_default_params():
    assert default_params(3) == pytest.approx((np.pi / 3, -np.pi / 3))
    assert default_params(6) == pytest.approx((np.pi / 6, -np.pi / 6))
    assert default_params(2) == pytest.approx((np.pi / 2, -np.pi / 2))


def test_default_params_rejects_small_n():
    with pytest.raises(ValueError):
        default_params(1)


def _star_diagonal_oracle(n):
    """Explicit 2^n enumeration of (J/2) * Z_0 * sum_k Z_k with unit star weights."""
    out = {}
    for idx in range(2**n):
        bits = [(idx >> q) & 1 for q in range(n)]
        signs = [1 - 2 * b for b in bits]
        energy = 0.5 * signs[0] * sum(signs[1:])
        key = (bits[0], sum(bits[1:]))
        out.setdefault(key, set()).add(round(energy, 12))
    return out


def test_compute_thetas_n7():
    want = [5 * np.pi / 7, 3 * np.pi / 7, np.pi / 7, -np.pi / 7, -3 * np.pi / 7, -5 * np.pi / 7, -np.pi]
    np.testing.assert_allclose(compute_thetas(7, *default_params(7)), want, atol=1e-12)


def test_compute_thetas_n2():
    np.testing.assert_allclose(compute_thetas(2, *default_params(2)), [0.0, -np.pi], atol=1e-15)


def test_last_theta_is_pi_mod_2pi():
    for n in range(2, 13):
        theta = compute_thetas(n, *default_params(n))[n - 1]
        assert abs((theta - np.pi) % (2 * np.pi)) < 1e-12


def test_thetas_uniformly_spaced():
    for n in range(2, 13):
        thetas = np.sort(np.mod(compute_thetas(n, *default_params(n)), 2 * np.pi))
        assert len(np.unique(np.round(thetas, 9))) == n
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2 * np.pi]]))
        np.testing.assert_allclose(gaps, 2 * np.pi / n, atol=1e-9)


def test_theta_matches_gap_construction():
    # bitwise identity: theta_q is built as gap * tau + h, where the gap is
    # the target splitting of the star Hamiltonian at control weight q
    for n in range(2, 10):
        oracle = _star_diagonal_oracle(n)
        tau, h = default_params(n)
        thetas = compute_thetas(n, tau, h)
        for q in range(n):
            (e0,), (e1,) = oracle[(0, q)], oracle[(1, q)]
            assert thetas[q] == (e0 - e1) * tau + h


def test_phase_reset():
    assert phase_reset_ok(6, np.pi / 3)
    assert not phase_reset_ok(4, np.pi / 3)
    assert phase_reset_ok(20, np.pi / 5)
    with pytest.raises(ValueError, match="non-negative"):
        phase_reset_ok(-6, np.pi / 3)
