"""Turn pinned series into pulse-train angle sequences.

The pulse train acts on each control subspace as

    F(theta) = Rz(phi_0) * prod_{j=1..L} [ Rz(phi_j) Rx(theta) Rz(-phi_j) ]

with the j = L factor applied first in time, matching the emitted circuit.
Writing F = A*1 + i(B*X + C*Y + D*Z) gives four trig series of degree L/2.
Compilation runs the reverse direction: given admissible A and B, build a
normalized quadruple (``complete``) and peel off the angles one degree at a
time (``extract_angles``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .series import EVEN, ODD, LaurentPoly, SynthesisError, TrigSeries, to_laurent
from .fitting import fit_A, fit_weight_dependent, weighted_params
from .su2 import canonical_angle, rx, rz
from .subspace import default_params, phase_reset_ok

log = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


class CompletionError(SynthesisError):
    """Spectral factorization failed to reach tolerance."""


class ExtractionError(SynthesisError):
    """Angle peeling failed to reproduce the quadruple to tolerance."""


@dataclass(frozen=True)
class CompilationPlan:
    """Angles phi_0..phi_L plus the pulse parameters they were built for."""

    n: int
    tau: float
    h: float
    phis: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        phis = tuple(float(p) for p in self.phis)
        if not phis:
            raise ValueError("phis must contain at least phi_0")
        if (len(phis) - 1) % 2 != 0:
            raise ValueError(f"pulse count L = {len(phis) - 1} must be even")
        object.__setattr__(self, "phis", phis)

    @property
    def num_pulses(self) -> int:
        """L: the number of global pulses in the train."""
        return len(self.phis) - 1

    def is_phase_reset_valid(self) -> bool:
        return phase_reset_ok(self.n, self.num_pulses, self.tau)


def evaluate_plan(phis, theta: float) -> np.ndarray:
    """SU(2) action of the train on a subspace with rotation angle theta."""
    u = rz(phis[0])
    x = rx(theta)
    for phi in phis[1:]:
        zp = rz(phi)
        u = u @ zp @ x @ zp.conj().T
    return u


def _quadruple_matrices(a, b, c, d, thetas):
    """Stack of A*1 + i(B*X + C*Y + D*Z) matrices on a theta grid."""
    av, bv, cv, dv = (s.evaluate(thetas) for s in (a, b, c, d))
    out = np.empty((len(thetas), 2, 2), dtype=complex)
    out[:, 0, 0] = av + 1j * dv
    out[:, 1, 1] = av - 1j * dv
    out[:, 0, 1] = 1j * bv + cv
    out[:, 1, 0] = 1j * bv - cv
    return out


def _select_factor_roots(roots: np.ndarray) -> list[complex]:
    """Pick one root from each reciprocal pair (r, 1/conj(r)) of P.

    Off-circle pairs contribute their inside member.  A double root on the
    circle comes back from the eigensolver as a close pair straddling
    |z| = 1 (split by ~sqrt(machine eps)); it contributes one copy,
    projected back onto the circle.
    """
    remaining = sorted((complex(r) for r in roots), key=abs)
    selected: list[complex] = []
    while remaining:
        r = remaining.pop(0)
        want = 1.0 / np.conj(r)
        dists = [abs(x - want) for x in remaining]
        i = int(np.argmin(dists))
        if dists[i] > 1e-2 * (1.0 + abs(want)):
            raise CompletionError(f"root {r:.6f} has no reciprocal partner")
        partner = remaining.pop(i)
        if abs(r - partner) < 1e-4:
            rep = 0.5 * (r + partner)
            selected.append(rep / abs(rep))
        else:
            selected.append(r if abs(r) < abs(partner) else partner)
    return selected


def _refine_completion(a, b, c_coeffs, d_coeffs, degree):
    """Gauss-Newton polish of (C, D) against A^2+B^2+C^2+D^2 = 1."""
    grid = np.linspace(0.0, 2.0 * np.pi, max(8 * (degree + 1), 256), endpoint=False)
    k = np.arange(degree + 1)
    sin_basis = np.sin(np.outer(grid, k))
    cos_basis = np.cos(np.outer(grid, k))
    ab2 = a.evaluate(grid) ** 2 + b.evaluate(grid) ** 2
    best = (np.inf, c_coeffs, d_coeffs)
    for _ in range(8):
        cv = sin_basis @ c_coeffs
        dv = cos_basis @ d_coeffs
        resid = ab2 + cv**2 + dv**2 - 1.0
        worst = float(np.max(np.abs(resid)))
        if worst < best[0]:
            best = (worst, c_coeffs.copy(), d_coeffs.copy())
        if worst < 1e-14:
            break
        jac = np.hstack([2.0 * cv[:, None] * sin_basis, 2.0 * dv[:, None] * cos_basis])
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        # the sin(0) column is all zeros, yet lstsq can return a tiny nonzero
        # step for it, which would break C's odd parity
        step[0] = 0.0
        c_coeffs = c_coeffs + step[: degree + 1]
        d_coeffs = d_coeffs + step[degree + 1 :]
    _, c_coeffs, d_coeffs = best
    return c_coeffs, d_coeffs


def complete(a: TrigSeries, b: TrigSeries, d_sign_at_pi: int) -> tuple[TrigSeries, TrigSeries]:
    """Find odd C and even D with A^2 + B^2 + C^2 + D^2 = 1 on the circle.

    Factorizes P(z) = 1 - A(z)^2 - B(z)^2 (non-negative on |z| = 1) as
    g(z) * g(1/z) with real g; C and D are the odd/even parts of g.  The
    sign of D(pi), when nonzero, is flipped (together with C) to match
    d_sign_at_pi; that flip maps realizable quadruples to realizable ones.
    """
    if a.parity != EVEN or b.parity != ODD:
        raise ValueError("complete() expects an even A and an odd B")
    if d_sign_at_pi not in (+1, -1):
        raise ValueError("d_sign_at_pi must be +1 or -1")
    degree = max(a.degree, b.degree)

    probe = np.linspace(0.0, 2.0 * np.pi, max(16 * (degree + 1), 64), endpoint=False)
    overshoot = float(np.max(a.evaluate(probe) ** 2 + b.evaluate(probe) ** 2)) - 1.0
    if overshoot > 1e-9:
        raise CompletionError(f"A^2 + B^2 exceeds 1 by {overshoot:.3e}; nothing to factorize")

    la, lb = to_laurent(a), to_laurent(b)
    one = LaurentPoly(np.array([1.0 + 0.0j]))
    p = one - la * la - lb * lb
    coeffs = p.coeffs
    if np.max(np.abs(coeffs.imag)) > 1e-12:
        raise CompletionError("1 - A^2 - B^2 has non-real coefficients")
    coeffs = coeffs.real.copy()
    scale = float(np.max(np.abs(coeffs)))

    if scale < 1e-14:  # A^2 + B^2 is already 1 everywhere
        zero_c = TrigSeries.zero(ODD, degree)
        zero_d = TrigSeries.zero(EVEN, degree)
        return zero_c, zero_d

    # trim numerically-zero symmetric tails so the companion solve sees the
    # true degree
    while coeffs.size > 1 and abs(coeffs[0]) < 1e-12 * scale and abs(coeffs[-1]) < 1e-12 * scale:
        coeffs = coeffs[1:-1]
    span = (coeffs.size - 1) // 2  # Laurent degree of the trimmed P

    roots = np.roots(coeffs[::-1]) if coeffs.size > 1 else np.array([])
    g_roots = _select_factor_roots(roots)
    if len(g_roots) != span:
        raise CompletionError(
            f"root pairing failed: selected {len(g_roots)} of {2 * span} roots"
        )

    gamma = np.atleast_1d(np.poly(g_roots))[::-1]  # ascending, monic
    if np.max(np.abs(gamma.imag)) > 1e-6:
        raise CompletionError("factor polynomial has non-real coefficients")
    gamma = gamma.real

    # center the factor: eta(z) = sqrt(lambda) * z^-floor(span/2) * gamma(z)
    lo = -(span // 2)
    hi = span + lo
    if max(abs(lo), abs(hi)) > degree:
        raise CompletionError(f"factor degree {max(abs(lo), abs(hi))} exceeds budget {degree}")
    eta = np.zeros(2 * degree + 1)
    eta[lo + degree : hi + degree + 1] = gamma

    # scale so that eta * eta(1/z) matches P
    auto = np.convolve(eta, eta[::-1])
    mid = (auto.size - 1) // 2
    auto = auto[mid - span : mid + span + 1]
    lam = float(np.dot(coeffs, auto) / np.dot(auto, auto))
    if lam <= 0.0:
        raise CompletionError(f"negative spectral scale {lam:.3e}")
    eta = eta * np.sqrt(lam)

    ks = np.arange(1, degree + 1)
    c_coeffs = np.concatenate([[0.0], eta[degree + ks] - eta[degree - ks]])
    d_coeffs = np.concatenate([[eta[degree]], eta[degree + ks] + eta[degree - ks]])
    c_coeffs, d_coeffs = _refine_completion(a, b, c_coeffs, d_coeffs, degree)

    c = TrigSeries(ODD, tuple(c_coeffs))
    d = TrigSeries(EVEN, tuple(d_coeffs))
    check = np.linspace(0.0, 2.0 * np.pi, max(4 * (degree + 1), 1024), endpoint=False)
    resid = float(
        np.max(
            np.abs(
                a.evaluate(check) ** 2
                + b.evaluate(check) ** 2
                + c.evaluate(check) ** 2
                + d.evaluate(check) ** 2
                - 1.0
            )
        )
    )
    log.debug("completion residual %.3e (degree %d)", resid, degree)
    if resid > NORMALIZATION_TOL:
        raise CompletionError(f"normalization residual {resid:.3e} exceeds {NORMALIZATION_TOL}")

    d_pi = d.evaluate(np.pi)
    if abs(d_pi) > 1e-9 and np.sign(d_pi) != d_sign_at_pi:
        c = TrigSeries(ODD, tuple(-np.asarray(c.coeffs)))
        d = TrigSeries(EVEN, tuple(-np.asarray(d.coeffs)))
    return c, d


def _matrix_laurent(a, b, c, d, degree):
    """Matrix coefficients of F in the half-angle variable w = exp(i*theta/2).

    Entry [m] multiplies w^(2*(m - degree)); only even powers occur.
    """
    la, lb, lc, ld = (to_laurent(s.padded(degree)) for s in (a, b, c, d))
    out = np.zeros((2 * degree + 1, 2, 2), dtype=complex)
    out[:, 0, 0] = la.coeffs + 1j * ld.coeffs
    out[:, 1, 1] = la.coeffs - 1j * ld.coeffs
    out[:, 0, 1] = 1j * lb.coeffs + lc.coeffs
    out[:, 1, 0] = 1j * lb.coeffs - lc.coeffs
    return out


def _norm_2x2(m: np.ndarray) -> np.ndarray:
    """Operator 2-norm of each 2x2 matrix in a (..., 2, 2) stack.

    sigma_max^2 = (F + sqrt(F^2 - 4|det|^2)) / 2 with F the squared
    Frobenius norm.  The discriminant is formed as (p - q)^2 + 4|r|^2 from
    m m^H = [[p, r], [r*, q]], which equals F^2 - 4|det|^2 without its
    cancellation when the two singular values are close.
    """
    rows = np.sum(m.real**2 + m.imag**2, axis=-1)
    p, q = rows[..., 0], rows[..., 1]
    r = m[..., 0, 0] * np.conj(m[..., 1, 0]) + m[..., 0, 1] * np.conj(m[..., 1, 1])
    disc = (p - q) ** 2 + 4.0 * (r.real**2 + r.imag**2)
    return np.sqrt(0.5 * (p + q + np.sqrt(disc)))


def _step_projectors(phi: float) -> tuple[np.ndarray, np.ndarray]:
    e = np.exp(1j * phi)
    t_plus = 0.5 * np.array([[1.0, -np.conj(e)], [-e, 1.0]])
    return t_plus, np.eye(2) - t_plus


def _peel(gcoef: np.ndarray, num_pulses: int) -> list[float]:
    """Strip factors Rz(phi) Rx(theta) Rz(-phi) off the right end.

    gcoef holds matrix coefficients over w-exponents -L..L.  Returns
    [phi_L, ..., phi_1]; the remaining constant term determines phi_0.
    """
    scale = float(np.max(np.abs(gcoef)))
    phis_rev: list[float] = []
    ell = num_pulses
    offset = num_pulses
    while ell >= 1:
        lead = gcoef[offset + ell]
        if np.linalg.norm(lead) <= 1e-8 * scale:
            # true degree is lower: the two rightmost steps form an identity
            # pair Rx(-theta) Rx(theta), i.e. (phi_{ell-1}, phi_ell) = (pi, 0)
            phis_rev.extend([0.0, np.pi])
            ell -= 2
            continue
        # phi is the relative phase of lead's dominant right singular vector
        # v, and arg(conj(v_0) v_1) = arg((lead^H lead)[0, 1])
        phi = float(-np.angle(-np.vdot(lead[:, 0], lead[:, 1])))
        t_plus, t_minus = _step_projectors(phi)
        new = np.zeros_like(gcoef)
        new[:-1] += gcoef[1:] @ t_plus
        new[1:] += gcoef[:-1] @ t_minus
        # the exponents ell+1 and ell must cancel structurally
        new[offset + ell :] = 0.0
        new[: offset - ell] = 0.0
        gcoef[:] = new
        phis_rev.append(phi)
        ell -= 1
    return phis_rev


def extract_angles(
    a: TrigSeries, b: TrigSeries, c: TrigSeries, d: TrigSeries, degree: int
) -> tuple[float, ...]:
    """Angles phi_0..phi_L (L = 2*degree) realizing a normalized quadruple.

    Peels one rotation per degree off the matrix Laurent polynomial (exact
    layer stripping, Haah 2019).  Raises ExtractionError if the train misses
    the quadruple by more than 1e-9 in operator norm at any angle of a grid
    of 4*(degree + 1) points (32 at least).
    """
    expected = {EVEN: (a, d), ODD: (b, c)}
    for parity, pair in expected.items():
        for s in pair:
            if s.parity != parity:
                raise ValueError(f"expected a {parity} series, got {s.parity}")
    for s in (a, b, c, d):
        if s.degree > degree:
            raise ValueError(f"series degree {s.degree} exceeds budget {degree}")

    num_pulses = 2 * degree
    fw = _matrix_laurent(a, b, c, d, degree)
    gcoef = np.zeros((2 * num_pulses + 1, 2, 2), dtype=complex)
    gcoef[::2] = fw  # even w-exponents only
    phis_rev = _peel(gcoef, num_pulses)
    g0 = gcoef[num_pulses]
    phi0 = float(-2.0 * np.angle(g0[0, 0]))
    phis = np.array([phi0] + phis_rev[::-1])

    thetas = np.linspace(0.0, 2.0 * np.pi, max(4 * (degree + 1), 32), endpoint=False)
    targets = _quadruple_matrices(a, b, c, d, thetas)
    misses = np.stack([evaluate_plan(phis, t) for t in thetas]) - targets
    worst = float(np.max(_norm_2x2(misses)))
    log.debug("extraction residual %.3e (L = %d)", worst, num_pulses)
    if not worst <= RECONSTRUCTION_TOL:  # a NaN miss fails too
        raise ExtractionError(f"reconstruction error {worst:.3e} exceeds {RECONSTRUCTION_TOL}")
    return tuple(canonical_angle(p) for p in phis)


def pad_for_phase_reset(plan: CompilationPlan) -> CompilationPlan:
    """Round the pulse count up to a multiple of 2N with identity pairs.

    Each appended pair (pi, 0) contributes Rx(-theta) Rx(theta) = 1 on the
    target while the extra pulses complete the pairwise control phases.
    """
    block = 2 * plan.n
    target = -(-plan.num_pulses // block) * block
    extra = (target - plan.num_pulses) // 2
    phis = plan.phis + (np.pi, 0.0) * extra
    return CompilationPlan(plan.n, plan.tau, plan.h, phis)


def _crot_quadruple(n: int, alpha: float) -> tuple[TrigSeries, TrigSeries, TrigSeries, TrigSeries]:
    """Normalized (A, B, C, D) of the controlled rotation: fitted A, zero B."""
    a = fit_A(n, alpha)
    b = TrigSeries.zero(ODD)
    # pin D(pi) = -sin(alpha/2) so the special block is Rz(alpha), not its
    # inverse
    sin_half = np.sin(alpha / 2.0)
    c, d = complete(a, b, -1 if sin_half > 0 else +1)
    return a, b, c, d


def crot_angles(n: int, alpha: float) -> CompilationPlan:
    """Angle sequence implementing Rz(alpha) on the target iff all N-1
    controls are |1>, using 2N global pulses."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    alpha = canonical_angle(alpha)
    tau, h = default_params(n)
    a, b, c, d = _crot_quadruple(n, alpha)
    phis = extract_angles(a, b, c, d, n - 1)
    plan = CompilationPlan(n, tau, h, phis)
    return pad_for_phase_reset(plan)


def weighted_angles(n: int, alphas) -> CompilationPlan:
    """Angle sequence applying Rx(alphas[q]) at control weight q (4N pulses)."""
    a, b = fit_weight_dependent(n, alphas)
    c, d = complete(a, b, +1)
    phis = extract_angles(a, b, c, d, 2 * n)
    tau, h = weighted_params(n)
    plan = CompilationPlan(n, tau, h, phis)
    return pad_for_phase_reset(plan)
