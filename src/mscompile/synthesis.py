"""Turn pinned series into pulse-train angle sequences.

The pulse train acts on each control subspace as

    F(theta) = Rz(phi_0) * prod_{j=1..L} [ Rz(phi_j) Rx(theta) Rz(-phi_j) ]

with the j = L factor applied first in time, matching the emitted circuit.
Writing F = A*1 + i(B*X + C*Y + D*Z) gives four trig series of degree L/2.
Compilation runs the reverse direction: each gate kind fits A and B, forms
P = 1 - A^2 - B^2 and its zeros in closed form, completes them to a
normalized quadruple (``complete``), and peels off the angles one degree
at a time (``extract_angles``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .series import EVEN, ODD, SynthesisError, TrigSeries, to_laurent
from .fitting import fit_A, fit_weight_dependent, weighted_params
from .su2 import canonical_angle, matrix, norm_2x2, rotation, rz
from .subspace import _angles, _check_size, _real, compute_thetas, default_params

log = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
# the longest padded train that the tests and CI compile: it bounds every kind,
# crot at N = 256 (2N pulses, so Toffoli n = 255) and weighted at N = 128 (4N)
MAX_PULSES = 512
# grid points per row block of the weighted P: its (rows, 2N) arrays stay within
# 2 MiB at every N, and grids of up to 1024 points (weighted N <= 8) are one block
_P_BLOCK_ROWS = 1024


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
        object.__setattr__(self, "n", _check_size(self.n))
        # from a list, not a generator: tuple() then takes the exact size rather than
        # resizing, so a long-running caller does not fill CPython's tuple free lists
        phis = tuple([float(p) for p in self.phis])
        if not phis:
            raise ValueError("phis must contain at least phi_0")
        if (len(phis) - 1) % 2 != 0:
            raise ValueError(f"pulse count L = {len(phis) - 1} must be even")
        object.__setattr__(self, "phis", phis)

    @property
    def num_pulses(self) -> int:
        """L: the number of global pulses in the train."""
        return len(self.phis) - 1


def evaluate_plan(phis, theta: float) -> np.ndarray:
    """SU(2) action of the train on a subspace with rotation angle theta.

    Each pulse's factor is formed in closed form,

        Rz(phi) Rx(theta) Rz(-phi) = [[c, -i*s*exp(-i*phi)], [-i*s*exp(i*phi), c]]

    with c, s = cos(theta/2), sin(theta/2) and every exp(i*phi) taken once
    per call, and applied as one 2x2 product.
    """
    c, minus_i_s = rotation("x", theta)
    phis = np.asarray(phis, dtype=float)
    with np.errstate(invalid="ignore"):  # an inf phi gives NaN entries, as su2.rotation's rule does
        phases = np.exp(1j * phis[1:]).tolist()
    u = rz(phis[0])
    for e in phases:
        u = u @ matrix(c, minus_i_s * e)
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


def _completion_grid(degree: int) -> np.ndarray:
    """The half-step grid of m = 2^ceil(log2(64*(degree + 1))) points.

    m is a power of two, so no crot or weighted node, and not pi, lands on it.
    """
    return _grid(1 << int(np.ceil(np.log2(64 * (degree + 1)))))


def _fejer(order: int, x: np.ndarray) -> np.ndarray:
    """F_M(x) = |(1/M) sum_{k<M} exp(ikx)|^2 = (sin(Mx/2) / (M sin(x/2)))^2.

    The product of sines keeps full relative precision near the double
    zeros x = 2*pi*k/M, k != 0.  x must avoid multiples of 2*pi.
    """
    return (np.sin(order * x / 2.0) / (order * np.sin(x / 2.0))) ** 2


def complete(p: np.ndarray, roots: np.ndarray, degree: int, d_sign_at_pi: int) -> tuple[TrigSeries, TrigSeries]:
    """Odd C and even D of the given degree with C^2 + D^2 = P on the circle.

    p holds P = 1 - A^2 - B^2 >= 0, a cosine series of degree 2*degree, on
    the half-step grid; roots holds its zeros on and near the circle, the
    inside one r of each pair r, 1/conj(r).  The roots are deflated
    pointwise: Q = P / |prod_r (1 - r/z)|^2 is factored by its real
    cepstrum into the minimum-phase H (analytic in 1/z, H(inf) > 0), and
    one FFT of eta = z^degree * H * prod_r (1 - r/z) gives eta's
    coefficients, whose odd/even parts are C and D (Fejer-Riesz; after
    Berntson & Sunderhauf, "Complementary polynomials in quantum signal
    processing", 2024).  A normalization miss over 1e-10 raises
    CompletionError.  C and D are negated together when
    sign(D(pi)) = -d_sign_at_pi; that flip maps realizable quadruples to
    realizable ones.
    """
    if d_sign_at_pi not in (+1, -1):
        raise ValueError("d_sign_at_pi must be +1 or -1")
    ks = np.arange(degree + 1)
    if np.max(p) < np.finfo(float).tiny:  # P is 0 or subnormal: C, D < 1.5e-154
        return TrigSeries.zero(ODD, degree), TrigSeries.zero(EVEN, degree)

    m = p.size
    theta = _grid(m)
    inv_z = np.exp(-1j * theta)
    # kept as samples: expanding the product into coefficients cancels
    # catastrophically once many roots share one half of the circle
    deflation = np.ones(m, dtype=complex)
    for r in roots:
        deflation *= 1.0 - r * inv_z
    half = np.arange(m // 2)
    cep = _coefficients(np.log(p / np.abs(deflation) ** 2), half).real
    cep[0] *= 0.5
    values = np.exp(_samples(cep, -half, m) + 1j * degree * theta) * deflation
    eta = _coefficients(values, np.arange(-degree, degree + 1)).real
    c_coeffs = np.concatenate([[0.0], eta[degree + ks[1:]] - eta[degree - ks[1:]]])
    d_coeffs = np.concatenate([[eta[degree]], eta[degree + ks[1:]] + eta[degree - ks[1:]]])
    cd2 = _samples(c_coeffs, ks, m).imag ** 2 + _samples(d_coeffs, ks, m).real ** 2
    resid = float(np.max(np.abs(cd2 - p)))
    log.debug("completion residual %.3e (degree %d, %d deflated zeros, m = %d)",
              resid, degree, len(roots), m)
    if not resid <= NORMALIZATION_TOL:  # a NaN fails too
        raise CompletionError(f"normalization residual {resid:.3e} exceeds {NORMALIZATION_TOL}")

    if np.sign(d_coeffs @ np.cos(np.pi * ks)) == -d_sign_at_pi:
        c_coeffs, d_coeffs = -c_coeffs, -d_coeffs
    return TrigSeries(ODD, tuple(c_coeffs)), TrigSeries(EVEN, tuple(d_coeffs))


def _peel_step(live: np.ndarray, phi: float) -> np.ndarray:
    """live[1:] @ T+ + live[:-1] @ T- with T+- = (1 -+ [[0, conj(e)], [e, 0]]) / 2, e = exp(i*phi).

    In closed form: with x = live[1:] and y = live[:-1], column 0 is
    (x0 + y0 - e (x1 - y1)) / 2 and column 1 is (x1 + y1 - conj(e) (x0 - y0)) / 2.
    """
    e = np.exp(1j * phi)
    x, y = live[1:], live[:-1]
    return 0.5 * (x + y - (x - y)[..., ::-1] * (e, e.conjugate()))


def _peel(live: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Strip factors Rz(phi) Rx(theta) Rz(-phi) off the right end.

    live holds the L + 1 matrix coefficients of w-exponents -L, -L+2, ..., L;
    every step leaves those of the next layer, one fewer (Haah's layer
    structure: at layer ell only ell's parity, -ell..ell, is nonzero).
    Returns [phi_L, ..., phi_1] and the constant term that determines phi_0.
    """
    scale = float(np.max(np.abs(live)))
    phis_rev: list[float] = []
    while len(live) > 1:
        lead = live[-1]
        if np.linalg.norm(lead) <= 1e-13 * scale:
            # true degree is lower: the two rightmost steps form an identity
            # pair Rx(-theta) Rx(theta), i.e. (phi_{ell-1}, phi_ell) = (pi, 0)
            phis_rev.extend([0.0, np.pi])
            live = live[1:-1]
            continue
        # phi is the relative phase of lead's dominant right singular vector
        # v, and arg(conj(v_0) v_1) = arg((lead^H lead)[0, 1])
        phi = float(-np.angle(-np.vdot(lead[:, 0], lead[:, 1])))
        # exponent k of the next layer is (k + 1) @ T+ + (k - 1) @ T-; the top
        # and bottom exponents cancel structurally and are not formed
        live = _peel_step(live, phi)
        phis_rev.append(phi)
    return phis_rev, live[0]


def extract_angles(a: TrigSeries, b: TrigSeries, c: TrigSeries, d: TrigSeries) -> tuple[float, ...]:
    """Angles phi_0..phi_L realizing a normalized quadruple.

    L = 2*degree, with degree the largest of the four series' degrees.
    Peels one rotation per degree off the matrix Laurent polynomial (exact
    layer stripping, Haah 2019); a vanishing top coefficient peels as the
    identity pair (pi, 0).  Raises ExtractionError if the train misses
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
    degree = max(s.degree for s in (a, b, c, d))
    # matrix coefficients of F in the half-angle variable w = exp(i*theta/2):
    # the Laurent coefficient k of each series multiplies w^(2k), so the
    # stack is the top layer, exponents -L, -L+2, ..., L (the series are passed as
    # lists, not generators, for the reason CompilationPlan gives)
    phis_rev, g0 = _peel(_su2_stack(*[to_laurent(s.padded(degree)) for s in (a, b, c, d)]))
    phi0 = float(-2.0 * np.angle(g0[0, 0]))
    phis = np.array([phi0] + phis_rev[::-1])

    # Z Rx(theta) Z = Rx(-theta) and Z commutes with Rz, so any train has
    # F(-theta) = Z F(theta) Z; A, D even and B, C odd give the target the
    # same mirror.  Both sides are 2*pi-periodic (L is even), so
    # ||miss(2*pi - theta_j)|| = ||miss(theta_j)|| and j <= M/2 covers the grid.
    m = max(4 * (degree + 1), 32)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)[: m // 2 + 1]
    targets = _su2_stack(*[s.evaluate(thetas) for s in (a, b, c, d)])
    misses = np.stack([evaluate_plan(phis, t) for t in thetas]) - targets
    worst = float(np.max(norm_2x2(misses)))
    log.debug("extraction residual %.3e (L = %d)", worst, 2 * degree)
    if not worst <= RECONSTRUCTION_TOL:  # a NaN miss fails too
        raise ExtractionError(f"reconstruction error {worst:.3e} exceeds {RECONSTRUCTION_TOL}")
    return tuple([canonical_angle(p) for p in phis])  # exact size, as in CompilationPlan


def pad_for_phase_reset(plan: CompilationPlan) -> CompilationPlan:
    """Round the pulse count up to a multiple of 2N with identity pairs.

    Each appended pair (pi, 0) contributes Rx(-theta) Rx(theta) = 1 on the
    target while the extra pulses complete the pairwise control phases.
    It is the only stage that lengthens a train: crot goes from 2N - 2
    pulses to 2N, weighted from 4N - 2 to 4N.
    """
    block = 2 * plan.n
    target = -(-plan.num_pulses // block) * block
    extra = (target - plan.num_pulses) // 2
    phis = plan.phis + (np.pi, 0.0) * extra
    return CompilationPlan(plan.n, plan.tau, plan.h, phis)


def _pole_depth(n: int, alpha: float) -> float:
    """y >= 0 with 1 + A = 0 at z0 = -exp(-y), the inside zero near pi.

    1 + A = 2 cos^2(alpha/4) + kappa * (1 - F_N(theta - pi)), and at
    theta = pi + i*y, F_N - 1 = (4/N^2) sum_{k<N} (N - k) sinh^2(k*y/2).  So
    y solves S(y) = cot^2(alpha/4), with no term cancelling.  S is convex
    and increasing, so Newton descends from the bound where the k = N - 1
    term alone reaches cot^2(alpha/4), and stops once a step no longer
    lowers y.  alpha = 0, or an alpha so small that cot^2 overflows, gives
    y = inf (z0 = 0); there P <= 2.3e-308, so C and D are below 1.6e-154
    whatever is deflated.
    """
    k = np.arange(1, n)
    weights = 4.0 * (n - k) / n**2
    with np.errstate(all="ignore"):
        cot2 = 1.0 / np.tan(alpha / 4.0) ** 2
        y = 2.0 * np.arcsinh(n * np.sqrt(cot2) / 2.0) / (n - 1)
        while True:
            s = np.sinh(k * y / 2.0)
            step = (weights @ s**2 - cot2) / (weights @ (k * s * np.cosh(k * y / 2.0)))
            if not (step > 0.0 and y - step < y):  # converged, stalled or NaN
                return float(y)
            y -= step


def _check_budget(kind: str, n: int, pulses_per_qubit: int) -> None:
    """Raise SynthesisError if kind's padded train, pulses_per_qubit * n pulses, exceeds MAX_PULSES."""
    if pulses_per_qubit * n > MAX_PULSES:
        raise SynthesisError(f"{kind} is supported up to N = {MAX_PULSES // pulses_per_qubit}, got N = {n}")


def _crot_quadruple(n: int, alpha: float) -> tuple[TrigSeries, TrigSeries, TrigSeries, TrigSeries]:
    """Normalized (A, B, C, D) of the controlled rotation: fitted A, zero B.

    A = 1 - kappa*G with kappa = 2 sin^2(alpha/4) and G = F_N(theta - pi),
    so P = 1 - A^2 = kappa * G * (2 cos^2(alpha/4) + kappa*(1 - G)), a
    product of non-negative factors.  1 - G >= 3.8e-5 on the grid, so its
    subtraction keeps 11 digits.  P's zeros near the circle are G's double
    zeros at the N - 1 unused-weight nodes and the pair of 1 + A near pi
    (``_pole_depth``), which is deflated at every alpha.

    The controlled block is A(pi) + i*D(pi)*Z, so it is Rz(alpha) iff
    D(pi) = -sin(alpha/2).  A miss over RECONSTRUCTION_TOL raises
    CompletionError, and N > MAX_PULSES / 2 raises SynthesisError first.
    """
    _check_budget("crot", n, 2)
    a = fit_A(n, alpha)
    b = TrigSeries.zero(ODD)
    kappa = 2.0 * np.sin(alpha / 4.0) ** 2
    g = _fejer(n, _completion_grid(n - 1) - np.pi)
    p = kappa * g * (2.0 * np.cos(alpha / 4.0) ** 2 + kappa * (1.0 - g))
    nodes = np.array(compute_thetas(n, *default_params(n))[:-1])  # theta_{N-1} = -pi
    roots = np.append(np.exp(1j * nodes), -np.exp(-_pole_depth(n, alpha)))
    sin_half = np.sin(alpha / 2.0)
    c, d = complete(p, roots, n - 1, -1 if sin_half > 0 else +1)
    miss = abs(d.evaluate(np.pi) + sin_half)
    if not miss <= RECONSTRUCTION_TOL:
        raise CompletionError(f"controlled block misses Rz(alpha) by {miss:.3e} (D(pi) + sin(alpha/2))")
    return a, b, c, d


def _weighted_quadruple(n: int, alphas) -> tuple[TrigSeries, TrigSeries, TrigSeries, TrigSeries]:
    """Normalized (A, B, C, D) applying Rx(alphas[q]) at control weight q.

    A + iB = sum_j F_j w_j with F_j = F_2N(theta - t_j) at the 2N nodes
    t_j = +-theta_q and w_j = exp(-+i*alphas[q]/2).  Since sum_j F_j = 1
    and |w_j| = 1, P = 1 - A^2 - B^2 = 1/2 sum_{j,l} F_j F_l |w_j - w_l|^2,
    a sum of non-negative terms, with |w_j - w_l| formed from the angle
    differences.  Its zeros near the circle are the double zeros at the
    nodes.  P is formed in row blocks of _P_BLOCK_ROWS grid points, so its
    memory does not grow with the grid.  The caller applies the pulse
    budget (``weighted_angles``).
    """
    a, b = fit_weight_dependent(n, alphas)
    thetas = np.array(compute_thetas(n, *weighted_params(n)))
    nodes = np.concatenate([thetas, -thetas])
    alphas = np.asarray(alphas, dtype=float)
    phases = np.concatenate([-alphas, alphas]) / 2.0  # w_j = exp(i*phases[j])
    gaps = 4.0 * np.sin(np.subtract.outer(phases, phases) / 2.0) ** 2
    grid = _completion_grid(2 * n - 1)
    p = np.empty(grid.size)
    for start in range(0, grid.size, _P_BLOCK_ROWS):
        rows = slice(start, start + _P_BLOCK_ROWS)
        fejer = _fejer(2 * n, np.subtract.outer(grid[rows], nodes))
        p[rows] = 0.5 * np.einsum("ij,ij->i", fejer, fejer @ gaps)
    c, d = complete(p, np.exp(1j * nodes), 2 * n - 1, +1)
    return a, b, c, d


def crot_angles(n: int, alpha: float) -> CompilationPlan:
    """Angle sequence implementing Rz(alpha) on the target iff all N-1
    controls are |1>, using 2N global pulses: a quadruple of degree N - 1
    (2N - 2 pulses) plus one identity pair from ``pad_for_phase_reset``.
    alpha is used as given; every stage reads it through 4*pi-periodic
    functions.  N > MAX_PULSES / 2 raises SynthesisError; an n that is not
    an integer of at least 2, or an alpha that is not a real number (a
    bool, string or complex), raises ValueError."""
    tau, h = default_params(n)
    plan = CompilationPlan(n, tau, h, extract_angles(*_crot_quadruple(n, _real(alpha, "alpha"))))
    return pad_for_phase_reset(plan)


def weighted_angles(n: int, alphas) -> CompilationPlan:
    """Angle sequence applying Rx(alphas[q]) at control weight q, using 4N
    global pulses: a quadruple of degree 2N - 1 (4N - 2 pulses) plus one
    identity pair from ``pad_for_phase_reset``.  N > MAX_PULSES / 4
    raises SynthesisError before alphas is read; n follows
    ``crot_angles``'s rules, and alphas must be n real numbers
    (``subspace._angles``)."""
    n = _check_size(n)
    _check_budget("weighted", n, 4)
    alphas = _angles(alphas, n)
    phis = extract_angles(*_weighted_quadruple(n, alphas))
    plan = CompilationPlan(n, *weighted_params(n), phis)
    return pad_for_phase_reset(plan)
