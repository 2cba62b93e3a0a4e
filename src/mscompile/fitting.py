"""Solve for low-degree trig series pinned at the per-weight rotation angles.

A controlled rotation needs an even series A with A = 1 at every angle
theta_q reached by unused control weights and A = cos(alpha/2) at the
special point theta = pi.  Pinning the derivative to zero at interior
points keeps |A| <= 1 (each pinned 1 is then a maximum) and makes the gate
first-order insensitive to pulse-area errors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .series import EVEN, ODD, SynthesisError, TrigSeries
from .su2 import canonical_angle
from .subspace import compute_thetas, default_params

log = logging.getLogger(__name__)


class FittingError(SynthesisError):
    """The constraint system could not be solved to tolerance."""


@dataclass(frozen=True)
class ConstraintSet:
    """Value (and optional derivative-zero) pins for a series of degree M.

    Each point contributes one value constraint plus one derivative
    constraint when pin_derivative is set; the total must equal M + 1 for a
    square solve.
    """

    points: tuple[tuple[float, float, bool], ...]  # (theta_star, value, pin_derivative)
    degree: int

    @property
    def num_constraints(self) -> int:
        return sum(2 if pin else 1 for _, _, pin in self.points)


def constraint_set_crot(n: int, alpha: float) -> ConstraintSet:
    """Pins on A for the N-qubit controlled rotation, folded to [0, pi].

    Folding uses the evenness of A; derivative pins are added at interior
    points only, since a cosine series is automatically flat at 0 and pi.
    The count always comes out to N constraints, matching degree N - 1.
    """
    alpha = canonical_angle(alpha)
    tau, h = default_params(n)
    thetas = compute_thetas(n, tau, h)
    folded: list[float] = []
    for t in sorted(abs(canonical_pi(theta)) for theta in thetas):
        if not folded or t - folded[-1] > 1e-9:
            folded.append(t)
    points = []
    for t in folded:
        is_special = abs(t - np.pi) <= 1e-9
        value = np.cos(alpha / 2.0) if is_special else 1.0
        interior = 1e-9 < t < np.pi - 1e-9
        points.append((float(t), float(value), bool(interior)))
    cs = ConstraintSet(tuple(points), degree=n - 1)
    if cs.num_constraints != n:
        raise FittingError(f"constraint folding produced {cs.num_constraints} pins, expected {n}")
    return cs


def canonical_pi(theta: float) -> float:
    """Fold an angle into (-pi, pi]."""
    folded = float(np.remainder(theta, 2.0 * np.pi))
    if folded > np.pi + 1e-15:
        folded -= 2.0 * np.pi
    return folded


def solve_series(constraints: ConstraintSet, parity: str = EVEN) -> TrigSeries:
    """Solve the square linear system defined by a ConstraintSet.

    Raises FittingError when the matrix is singular (e.g. duplicated pin
    points) or the residual exceeds 1e-10.
    """
    m = constraints.degree
    # sin(0*theta) carries no weight, so an odd system solves k = 1..M only
    k = np.arange(0 if parity == EVEN else 1, m + 1)
    rows, rhs = [], []
    for theta, value, pin in constraints.points:
        kt = k * theta
        rows.append(np.cos(kt) if parity == EVEN else np.sin(kt))
        rhs.append(value)
        if pin:
            rows.append(-k * np.sin(kt) if parity == EVEN else k * np.cos(kt))
            rhs.append(0.0)
    mat = np.array(rows)
    rhs = np.array(rhs)
    if mat.shape[0] != mat.shape[1]:
        raise FittingError(f"constraint system is {mat.shape[0]}x{mat.shape[1]}, needs to be square")
    cond = np.linalg.cond(mat)
    log.debug("series solve: degree %d, condition number %.3e", m, cond)
    if not np.isfinite(cond) or cond > 1e13:
        raise FittingError(f"constraint matrix is singular (condition number {cond:.3e})")
    coeffs = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ coeffs - rhs)))
    if residual > 1e-10:
        raise FittingError(f"constraint residual {residual:.3e} exceeds 1e-10")
    if parity == ODD:
        coeffs = np.concatenate([[0.0], coeffs])
    return TrigSeries(parity, tuple(coeffs))


def fit_A(n: int, alpha: float) -> TrigSeries:
    """Even series of degree N-1 realizing the controlled-rotation pins."""
    return solve_series(constraint_set_crot(n, alpha), EVEN)


def weighted_params(n: int) -> tuple[float, float]:
    """Pulse parameters for weight-dependent rotations.

    tau stays pi/N (so L = 4N still resets pairwise phases) but h is offset
    by -pi/(2N): the default h = -pi/N would place theta_q and -theta_q'
    at mirror points for q + q' = N - 2, and an even A / odd B pair cannot
    take independent values at mirror angles.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return np.pi / n, -np.pi / n - np.pi / (2.0 * n)


def fit_weight_dependent(n: int, alphas) -> tuple[TrigSeries, TrigSeries]:
    """Even A and odd B with (A, B)(theta_q) = (cos, -sin)(alphas[q]/2).

    Both series carry derivative pins at every theta_q.  A uses degree
    2N-1 and B degree 2N, so each system is square; the quadruple degree
    budget is 2N, i.e. a pulse train of length 4N.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ValueError(f"need one angle per control weight 0..{n - 1}, got {len(alphas)}")
    alphas = [canonical_angle(a) for a in alphas]
    tau, h = weighted_params(n)
    thetas = compute_thetas(n, tau, h)

    a_points = tuple(
        (float(t), float(np.cos(a / 2.0)), True) for t, a in zip(thetas, alphas)
    )
    b_points = tuple(
        (float(t), float(-np.sin(a / 2.0)), True) for t, a in zip(thetas, alphas)
    )
    series_a = solve_series(ConstraintSet(a_points, degree=2 * n - 1), EVEN)
    series_b = solve_series(ConstraintSet(b_points, degree=2 * n), ODD)
    return series_a.padded(2 * n), series_b
