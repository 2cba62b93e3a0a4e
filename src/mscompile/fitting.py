"""Trig series pinned at the per-weight rotation angles, in closed form.

A controlled rotation needs an even series A with A = 1 at every angle
theta_q reached by unused control weights and A = cos(alpha/2) at the
special point theta = pi, with a zero derivative at every theta_q.  The
pulse area tau = pi/N puts these pins on an equispaced circle grid, and a
series of degree M - 1 with values y_j and zero derivatives at M equispaced
nodes t_j is the Hermite-Fejer interpolant

    sum_j y_j * F_M(theta - t_j),   F_M(x) = |(1/M) sum_{k<M} exp(ikx)|^2,

with F_M the normalized Fejer kernel (Fejer, "Uber Interpolation",
Gottinger Nachrichten 1916).  So no fit solves a linear system.

What the pins give: each pinned value is a stationary point of A and B.
F_M >= 0 and sum_j F_M(theta - t_j) = 1, so A + iB is a convex combination
of unit-modulus node values and |A + iB| <= 1 on the whole circle.  They do
not make the gate insensitive to pulse-area error: with every pulse area
scaled by (1 + eps), crot N = 4's worst control block misses by 1.4e-2 at
eps = 1e-3 and 0.14 at eps = 1e-2, linear in eps.
"""

from __future__ import annotations

import numpy as np

from .series import EVEN, ODD, SynthesisError, TrigSeries
from .subspace import _angles, _check_size, compute_thetas, default_params


class FittingError(SynthesisError):
    """A fit missed its pins.

    No fit raises it any more: both fits are closed-form sums.  The class
    stays because the benchmark's workload module (perfbench/workloads.py)
    imports it from here to classify synthesis failures.
    """


def _fejer_series(parity: str, nodes, values, base: float = 0.0) -> TrigSeries:
    """base + sum_j values[j] * F_M(theta - nodes[j]) with M = len(nodes).

    F_M has Laurent coefficients (1 - |k|/M)/M for |k| < M, so the sum's
    coefficient at k is that taper times the node values' Fourier sum.
    Even values give a cosine series, odd values a sine series, of
    degree M - 1.
    """
    m = len(nodes)
    k = np.arange(m)
    spectrum = (1.0 - k / m) / m * (np.exp(-1j * np.multiply.outer(k, nodes)) @ values)
    if parity == EVEN:
        coeffs = 2.0 * spectrum.real
        coeffs[0] = base + spectrum[0].real
    else:
        coeffs = -2.0 * spectrum.imag
        coeffs[0] = 0.0
    return TrigSeries(parity, tuple(coeffs))


def fit_A(n: int, alpha: float) -> TrigSeries:
    """Even series of degree N-1 realizing the controlled-rotation pins.

    A = 1 - 2 sin^2(alpha/4) * F_N(theta - pi): the dip is formed directly,
    not as 1 - cos(alpha/2), which cancels at small alpha.
    """
    thetas = compute_thetas(n, *default_params(n))
    dips = np.zeros(n)
    dips[-1] = 2.0 * np.sin(alpha / 4.0) ** 2  # theta_{N-1} = -pi
    return _fejer_series(EVEN, thetas, -dips, base=1.0)


def weighted_params(n: int) -> tuple[float, float]:
    """Pulse parameters for weight-dependent rotations.

    tau stays pi/N (so L = 4N still resets pairwise phases) but h is offset
    by -pi/(2N): the default h = -pi/N would place theta_q and -theta_q'
    at mirror points for q + q' = N - 2, and an even A / odd B pair cannot
    take independent values at mirror angles.
    """
    n = _check_size(n)
    return np.pi / n, -np.pi / n - np.pi / (2.0 * n)


def fit_weight_dependent(n: int, alphas) -> tuple[TrigSeries, TrigSeries]:
    """Even A and odd B with (A, B)(theta_q) = (cos, -sin)(alphas[q]/2).

    The 2N nodes +-theta_q are equispaced (spacing pi/N), so A and B are
    Fejer sums with M = 2N, both of degree 2N - 1 (a pulse train of length
    4N - 2, which padding takes to 4N).  Both are flat at every node.
    """
    thetas = np.array(compute_thetas(n, *weighted_params(n)))
    alphas = np.array(_angles(alphas, n))
    nodes = np.concatenate([thetas, -thetas])
    dips = 2.0 * np.sin(alphas / 4.0) ** 2
    sines = np.sin(alphas / 2.0)
    a = _fejer_series(EVEN, nodes, -np.concatenate([dips, dips]), base=1.0)
    b = _fejer_series(ODD, nodes, np.concatenate([-sines, sines]))
    return a, b
