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

from .series import EVEN, ODD, SynthesisError, TrigSeries, to_laurent
from .fitting import fit_A, fit_weight_dependent, weighted_params
from .su2 import canonical_angle, norm_2x2, rx, rz
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


def _su2_stack(av, bv, cv, dv) -> np.ndarray:
    """Stack of A*1 + i(B*X + C*Y + D*Z) from four equal-length value arrays."""
    out = np.empty((len(av), 2, 2), dtype=complex)
    out[:, 0, 0] = av + 1j * dv
    out[:, 1, 1] = av - 1j * dv
    out[:, 0, 1] = 1j * bv + cv
    out[:, 1, 0] = 1j * bv - cv
    return out


def _grid(m: int) -> np.ndarray:
    """The half-step circle grid theta_j = 2*pi*(j + 1/2)/m."""
    return 2.0 * np.pi * (np.arange(m) + 0.5) / m


def _samples(coeffs, freqs: np.ndarray, m: int) -> np.ndarray:
    """sum_k coeffs[k] * exp(i*freqs[k]*theta) on the half-step grid (|freqs| < m/2)."""
    spec = np.zeros(m, dtype=complex)
    spec[freqs % m] = coeffs * np.exp(1j * np.pi * freqs / m)
    return m * np.fft.ifft(spec)


def _coefficients(values: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Fourier coefficients at freqs of samples on the half-step grid."""
    m = values.size
    return np.fft.fft(values)[freqs % m] * np.exp(-1j * np.pi * freqs / m) / m


def _near_zeros(p: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    """Roots of P = 1 - A^2 - B^2 on and near the unit circle, |z| <= 1.

    p holds P on the half-step grid and p_hat its Laurent coefficients
    0..span.  Newton on P' = 0 starts at every local minimum of the samples.
    A minimum at t with P(t) <= 1e-12 is a double zero z = exp(i*t) on the
    circle (the pins, and pi at alpha = +-2*pi).  Above that, complex Newton
    on P = 0 finds the nearby root pair z, 1/conj(z); the inside one is kept.
    """
    k = np.arange(p_hat.size)
    cos_coeffs = np.where(k > 0, 2.0, 1.0) * p_hat

    def taylor(t):
        """P, P' and P'' at t (real or complex)."""
        kt = np.multiply.outer(t, k)
        cos, sin = np.cos(kt), np.sin(kt)
        return cos @ cos_coeffs, -(sin * k) @ cos_coeffs, -(cos * k**2) @ cos_coeffs

    def newton(t, order):
        """Zeros of P (order 0) or of P' (order 1), from starts t."""
        for _ in range(12):
            values = taylor(t)
            step = values[order] / values[order + 1]
            t = t - step
            if np.all(np.abs(step) <= 1e-12):
                break
        return t

    starts = (p < np.roll(p, 1)) & (p <= np.roll(p, -1))
    with np.errstate(all="ignore"):  # starts that diverge are dropped below
        t = newton(_grid(p.size)[starts], 1)
        depth, _, curvature = taylor(t)
        t, depth, curvature = t[curvature > 0], depth[curvature > 0], curvature[curvature > 0]
        near = depth > 1e-12
        w = newton(t[near] + 1j * np.sqrt(2.0 * depth[near] / curvature[near]), 0)
        w = w[np.abs(taylor(w)[0]) <= 1e-12]
    roots = np.exp(1j * np.concatenate([t[~near], w.real + 1j * np.abs(w.imag)]))
    # two starts can converge to one root
    close = np.abs(roots[:, None] - roots[None, :]) < 1e-6
    return roots[~np.any(np.tril(close, -1), axis=1)]


def _deflation(roots: np.ndarray, m: int) -> np.ndarray:
    """prod_r (1 - r/z) on the half-step grid, z = exp(i*theta).

    Kept as samples: expanding the product into coefficients cancels
    catastrophically once many roots share one half of the circle.
    """
    inv_z = np.exp(-1j * _grid(m))
    out = np.ones(m, dtype=complex)
    for r in roots:
        out *= 1.0 - r * inv_z
    return out


def _factor(q: np.ndarray, deflation: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi of eta with |eta|^2 = Q * |deflation|^2 on the circle.

    Works on the grid of the deflation samples.  Q (cosine coefficients q)
    is factored by its real cepstrum into the minimum-phase H (analytic in
    1/z, H(inf) > 0), and eta = z^hi * H * deflation.
    """
    m = deflation.size
    half = np.arange(m // 2)
    qv = _samples(q, np.arange(q.size), m).real
    cep = _coefficients(np.log(np.maximum(qv, 1e-30 * np.max(qv))), half).real
    cep[0] *= 0.5
    values = np.exp(_samples(cep, -half, m) + 1j * hi * _grid(m)) * deflation
    return _coefficients(values, np.arange(lo, hi + 1)).real


def complete(a: TrigSeries, b: TrigSeries, d_sign_at_pi: int) -> tuple[TrigSeries, TrigSeries]:
    """Find odd C and even D with A^2 + B^2 + C^2 + D^2 = 1 on the circle.

    Factorizes P = 1 - A^2 - B^2 >= 0 as |eta|^2 with real eta on m =
    2^ceil(log2(64*(degree + 1))) circle samples; m is a power of two, so
    no crot or weighted pin lands on the half-step grid.  A sample with
    P < -1e-9 raises CompletionError.  The fitted kinds have
    A^2 + B^2 <= 1 by construction, so for them this test can fire only
    through rounding; it stays as the check on caller-built series.  The roots of P on and near the circle are deflated,
    the quotient is fitted by least squares and factored by its real
    cepstrum, and one FFT of the product gives eta, whose odd/even parts
    are C and D.  A normalization miss over 1e-10 raises CompletionError.
    The sign of D(pi), when nonzero, is flipped (together with C) to match
    d_sign_at_pi; that flip maps realizable quadruples to realizable ones.
    """
    if a.parity != EVEN or b.parity != ODD:
        raise ValueError("complete() expects an even A and an odd B")
    if d_sign_at_pi not in (+1, -1):
        raise ValueError("d_sign_at_pi must be +1 or -1")
    degree = max(a.degree, b.degree)
    ks = np.arange(degree + 1)

    m = 1 << int(np.ceil(np.log2(64 * (degree + 1))))
    p = 1.0 - _samples(a.coeffs, ks[: a.degree + 1], m).real ** 2
    p -= _samples(b.coeffs, ks[: b.degree + 1], m).imag ** 2
    overshoot = -float(np.min(p))
    if not overshoot <= 1e-9:  # a NaN fails too
        raise CompletionError(
            f"A^2 + B^2 exceeds 1 by {overshoot:.3e}: "
            "the requested weight profile is not normalizable at this degree"
        )

    p_hat = _coefficients(p, np.arange(2 * degree + 1)).real
    scale = float(np.max(np.abs(p_hat)))
    if scale < 1e-14:  # A^2 + B^2 is already 1 everywhere
        return TrigSeries.zero(ODD, degree), TrigSeries.zero(EVEN, degree)
    span = int(np.flatnonzero(np.abs(p_hat) >= 1e-12 * scale)[-1])  # Laurent degree of P

    roots = _near_zeros(p, p_hat[: span + 1])
    if roots.size > span:
        raise CompletionError(f"{roots.size} roots to deflate exceed the degree {span} of P")
    deflation = _deflation(roots, m)
    # Q = P / |deflation|^2 by least squares on P over all samples: dividing
    # pointwise fails where P is at rounding level near its zeros
    basis = np.cos(np.multiply.outer(_grid(m), np.arange(span - roots.size + 1)))
    q, *_ = np.linalg.lstsq(np.abs(deflation[:, None]) ** 2 * basis, p, rcond=None)

    # center the factor on exponents -floor(span/2)..span - floor(span/2)
    lo = -(span // 2)
    hi = span + lo
    eta = np.zeros(2 * degree + 1)
    eta[lo + degree : hi + degree + 1] = _factor(q, deflation, lo, hi)
    c_coeffs = np.concatenate([[0.0], eta[degree + ks[1:]] - eta[degree - ks[1:]]])
    d_coeffs = np.concatenate([[eta[degree]], eta[degree + ks[1:]] + eta[degree - ks[1:]]])
    cd2 = _samples(c_coeffs, ks, m).imag ** 2 + _samples(d_coeffs, ks, m).real ** 2
    resid = float(np.max(np.abs(cd2 - p)))
    log.debug("completion residual %.3e (degree %d, %d deflated zeros, m = %d)",
              resid, degree, roots.size, m)
    if not resid <= NORMALIZATION_TOL:  # a NaN fails too
        raise CompletionError(f"normalization residual {resid:.3e} exceeds {NORMALIZATION_TOL}")

    c = TrigSeries(ODD, tuple(c_coeffs))
    d = TrigSeries(EVEN, tuple(d_coeffs))
    d_pi = d.evaluate(np.pi)
    if abs(d_pi) > 1e-9 and np.sign(d_pi) != d_sign_at_pi:
        c = TrigSeries(ODD, tuple(-np.asarray(c.coeffs)))
        d = TrigSeries(EVEN, tuple(-np.asarray(d.coeffs)))
    return c, d


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
    the quadruple by more than 1e-9 in operator norm at any angle of the
    grid theta_j = 2*pi*j/M, M = max(4*(degree + 1), 32).  The miss at
    2*pi - theta is the miss at theta conjugated by Z, so only
    j = 0..M/2 are simulated: the other points repeat their norms.
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
    # matrix coefficients of F in the half-angle variable w = exp(i*theta/2):
    # the Laurent coefficient k of each series multiplies w^(2k)
    gcoef = np.zeros((2 * num_pulses + 1, 2, 2), dtype=complex)
    gcoef[::2] = _su2_stack(*(to_laurent(s.padded(degree)) for s in (a, b, c, d)))
    phis_rev = _peel(gcoef, num_pulses)
    g0 = gcoef[num_pulses]
    phi0 = float(-2.0 * np.angle(g0[0, 0]))
    phis = np.array([phi0] + phis_rev[::-1])

    # Z Rx(theta) Z = Rx(-theta) and Z commutes with Rz, so any train has
    # F(-theta) = Z F(theta) Z; A, D even and B, C odd give the target the
    # same mirror.  Both sides are 2*pi-periodic (L is even), so
    # ||miss(2*pi - theta_j)|| = ||miss(theta_j)|| and j <= M/2 covers the grid.
    m = max(4 * (degree + 1), 32)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)[: m // 2 + 1]
    targets = _su2_stack(*(s.evaluate(thetas) for s in (a, b, c, d)))
    misses = np.stack([evaluate_plan(phis, t) for t in thetas]) - targets
    worst = float(np.max(norm_2x2(misses)))
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
    """Normalized (A, B, C, D) of the controlled rotation: fitted A, zero B.

    The controlled block is A(pi) + i*D(pi)*Z, so it is Rz(alpha) iff
    D(pi) = -sin(alpha/2).  A miss over RECONSTRUCTION_TOL raises
    CompletionError: near alpha = 2*pi*k, P(pi) = sin^2(alpha/2) can sit
    at the rounding level where completion takes it for a zero.
    """
    a = fit_A(n, alpha)
    b = TrigSeries.zero(ODD)
    sin_half = np.sin(alpha / 2.0)
    c, d = complete(a, b, -1 if sin_half > 0 else +1)
    miss = abs(d.evaluate(np.pi) + sin_half)
    if not miss <= RECONSTRUCTION_TOL:
        raise CompletionError(f"controlled block misses Rz(alpha) by {miss:.3e} (D(pi) + sin(alpha/2))")
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
