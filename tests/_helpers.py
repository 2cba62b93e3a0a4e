"""Shared test oracles, kept independent of the code paths they check, and
``checked_verdict``, which holds ``verify_circuit`` to one of them."""

from functools import reduce
from math import comb

import numpy as np
from scipy.linalg import block_diag, expm

from mscompile import (
    EVEN,
    ODD,
    Circuit,
    CompilationPlan,
    TrigSeries,
    compute_thetas,
    default_params,
    evaluate_plan,
    verify_circuit,
)
from mscompile.series import to_laurent
from mscompile.su2 import canonical_angle

X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def embed(n: int, u2: np.ndarray, qubit: int) -> np.ndarray:
    """Dense single-qubit embedding, qubit 0 = least significant bit."""
    op = np.array([[1.0]], dtype=complex)
    for q in range(n - 1, -1, -1):
        op = np.kron(op, u2 if q == qubit else np.eye(2))
    return op


def dense_ms(n: int, tau: float) -> np.ndarray:
    """Scaling-and-squaring exponential of the literal double-sum generator."""
    gen = np.zeros((2**n, 2**n), dtype=complex)
    xs = [embed(n, X2, j) for j in range(n)]
    for j in range(n):
        for k in range(n):
            gen += xs[j] @ xs[k]
    return expm(-0.25j * tau * gen)


def slow_unitary(circuit: Circuit) -> np.ndarray:
    """Reference simulator: dense kron embeddings, no fast paths; each
    distinct pulse is exponentiated once per circuit."""

    def rot(axis, angle):
        paulis = {
            "RX": X2,
            "RY": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "RZ": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        return expm(-0.5j * angle * paulis[axis])

    n = circuit.num_qubits
    u = np.eye(2**n, dtype=complex)
    pulses = {}
    for gate in circuit.gates:
        if gate.kind == "MS":
            if gate.angle not in pulses:
                pulses[gate.angle] = dense_ms(n, gate.angle)
            g = pulses[gate.angle]
        elif gate.kind == "H":
            g = embed(n, H2, gate.qubit)
        else:
            g = embed(n, rot(gate.kind, gate.angle), gate.qubit)
        u = g @ u
    return u


def axis_unitary(circuit: Circuit) -> np.ndarray:
    """Reference simulator past slow_unitary's reach, one row axis per gate.

    It holds W = H^N U, the unitary seen in the X basis of every qubit:
    W starts as H^N, a pulse multiplies row m of W by exp(-i tau (N - 2|m|)^2 / 4),
    since (sum_j X_j)^2 is diagonal there, and a gate g on qubit q multiplies
    W by H g H on q's row axis.  U is H^N W at the end.
    """
    n = circuit.num_qubits
    spin_sq = (n - 2.0 * np.bitwise_count(np.arange(2**n))) ** 2

    def on(u2, q, w):
        return np.matmul(u2, w.reshape(-1, 2, 2**q * 2**n)).reshape(w.shape)

    w = reduce(np.kron, [H2] * n)
    for gate in circuit.gates:
        if gate.kind == "MS":
            w *= np.exp(-0.25j * gate.angle * spin_sq)[:, None]
        else:
            w = on(H2 @ (H2 if gate.kind == "H" else _rotation(gate.kind, gate.angle)) @ H2, gate.qubit, w)
    for q in range(n):
        w = on(H2, q, w)
    return w


def pauli_components(u: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Decompose u = a*1 + i(b*X + c*Y + d*Z).

    For an exact SU(2) matrix the four components are real; any imaginary
    part measures deviation from SU(2).
    """
    a = (u[0, 0] + u[1, 1]) / 2.0
    b = (u[0, 1] + u[1, 0]) / 2.0j
    c = (u[0, 1] - u[1, 0]) / 2.0
    d = (u[0, 0] - u[1, 1]) / 2.0j
    return a, b, c, d


def quadruple_matrix(a, b, c, d, theta) -> np.ndarray:
    av, bv, cv, dv = a(theta), b(theta), c(theta), d(theta)
    return np.array([[av + 1j * dv, 1j * bv + cv], [1j * bv - cv, av - 1j * dv]])


def series_derivative(s: TrigSeries, theta):
    """Exact termwise derivative of a trig series at theta (scalar or ndarray)."""
    k = np.arange(len(s.coeffs))
    kt = np.multiply.outer(np.asarray(theta, dtype=float), k)
    basis = -np.sin(kt) * k if s.parity == EVEN else np.cos(kt) * k
    out = basis @ np.asarray(s.coeffs)
    return out if out.ndim else float(out)


def series_from_samples(values: np.ndarray, degree: int, parity: str) -> TrigSeries:
    """Recover trig-series coefficients from uniform samples over [0, 2*pi)."""
    k = len(values)
    spec = np.fft.rfft(values)
    if parity == "even":
        coeffs = [float(spec[0].real) / k]
        coeffs += [2.0 * float(spec[m].real) / k for m in range(1, degree + 1)]
    else:
        coeffs = [0.0]
        coeffs += [-2.0 * float(spec[m].imag) / k for m in range(1, degree + 1)]
    return TrigSeries(parity, tuple(coeffs))


def full_width_angles(a, b, c, d) -> tuple[float, ...]:
    """Reference peel for extract_angles, without its reconstruction check.

    Holds the matrix coefficients of every w-exponent -L..L, the wrong
    parity as zeros, takes extract_angles's closed-form step over the whole
    array and then zeroes the exponents that must cancel: the full-width
    form of the layer stripping that extract_angles does on the live layer
    alone.
    """
    degree = max(s.degree for s in (a, b, c, d))
    av, bv, cv, dv = (to_laurent(s.padded(degree)) for s in (a, b, c, d))
    num_pulses = 2 * degree
    gcoef = np.zeros((2 * num_pulses + 1, 2, 2), dtype=complex)
    gcoef[::2, 0, 0] = av + 1j * dv
    gcoef[::2, 1, 1] = av - 1j * dv
    gcoef[::2, 0, 1] = 1j * bv + cv
    gcoef[::2, 1, 0] = 1j * bv - cv
    scale = float(np.max(np.abs(gcoef)))
    phis_rev = []
    ell = offset = num_pulses
    while ell >= 1:
        lead = gcoef[offset + ell]
        if np.linalg.norm(lead) <= 1e-13 * scale:
            phis_rev.extend([0.0, np.pi])
            ell -= 2
            continue
        phi = float(-np.angle(-np.vdot(lead[:, 0], lead[:, 1])))
        e = np.exp(1j * phi)
        # exponent k of the next layer is (k + 1) @ T+ + (k - 1) @ T-, zero past either end
        zero = np.zeros((1, 2, 2), dtype=complex)
        x, y = np.concatenate([gcoef[1:], zero]), np.concatenate([zero, gcoef[:-1]])
        new = 0.5 * (x + y - (x - y)[..., ::-1] * (e, e.conjugate()))
        new[offset + ell :] = 0.0
        new[: offset - ell] = 0.0
        gcoef = new
        phis_rev.append(phi)
        ell -= 1
    phi0 = float(-2.0 * np.angle(gcoef[num_pulses][0, 0]))
    return tuple(canonical_angle(p) for p in [phi0] + phis_rev[::-1])


def crot_targets(n: int, alpha: float) -> list[np.ndarray]:
    """Target block per control weight of C^(N-1) Rz(alpha): Rz at q = N - 1, else 1."""
    return [np.eye(2)] * (n - 1) + [np.diag(np.exp([-0.5j * alpha, 0.5j * alpha]))]


def weighted_targets(alphas) -> list[np.ndarray]:
    """Target block Rx(alphas[q]) per control weight q."""
    return [expm(-0.5j * a * X2) for a in alphas]


def node_block_miss(plan: CompilationPlan, targets) -> float:
    """Largest operator-norm miss of the train at theta_q from targets[q]."""
    thetas = compute_thetas(plan.n, plan.tau, plan.h)
    return max(np.linalg.norm(evaluate_plan(plan.phis, t) - u, ord=2) for t, u in zip(thetas, targets))


def plan_from_merged(n: int, merged) -> CompilationPlan:
    """Invert ``plan_merged_angles`` for a crot train of L >= 2 pulses.

    merged[L] = -phi_L, merged[j] = phi_{j+1} - phi_j for j = 1..L-1 and
    merged[0] = phi_0 + phi_1, so the phis follow from L down to 0.
    """
    m = [float(x) for x in merged]
    phis = [-m[-1]]
    for mj in reversed(m[1:-1]):
        phis.append(phis[-1] - mj)
    phis.append(m[0] - phis[-1])
    return CompilationPlan(n, *default_params(n), tuple(reversed(phis)))


def _rotation(kind: str, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma) for RX, RY or RZ, in closed form."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return {
        "RX": np.array([[c, -1j * s], [-1j * s, c]]),
        "RY": np.array([[c, -s], [s, c]], dtype=complex),
        "RZ": np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]]),
    }[kind]


def train_weight_blocks(gates, n: int, target: int) -> np.ndarray:
    """The 2x2 on the target of a pulse train at each control weight q = 0..n-1.

    Every control carries only H gates, an even number, and is flipped at
    every pulse.  Inside that sandwich control bitstring c stays |c>, so
    MS(tau) acts at weight q = popcount(c) as e^(-i tau (s^2 + 1)/4) Rx(tau s)
    on the target, s = n - 1 - 2q.  The gate list is walked once, each gate
    applied to the n weights' 2x2s at once.
    """
    spin = n - 1 - 2.0 * np.arange(n)
    blocks = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    flipped = {q: False for q in range(n) if q != target}
    for gate in gates:
        if gate.kind == "MS":
            assert all(flipped.values()), "a pulse outside the control sandwich"
            half = 0.5 * gate.angle * spin
            c, s = np.cos(half), np.sin(half)
            step = np.stack([np.stack([c, -1j * s], -1), np.stack([-1j * s, c], -1)], -2)
            blocks = np.exp(-0.25j * gate.angle * (spin**2 + 1.0))[:, None, None] * step @ blocks
        elif gate.qubit == target:
            blocks = (H2 if gate.kind == "H" else _rotation(gate.kind, gate.angle)) @ blocks
        else:
            assert gate.kind == "H", f"{gate.kind} on control {gate.qubit}"
            flipped[gate.qubit] = not flipped[gate.qubit]
    assert not any(flipped.values()), "the control sandwich is left open"
    return blocks


def oracle_verdict(circuit: Circuit, kind: str, n: int, alpha=None, alphas=None) -> tuple[float, float, bool]:
    """(worst_block, phase_distance, passed) of a compiled train at the
    library's 1e-6, from ``train_weight_blocks`` alone.

    crot and weighted judge the 2x2 at each control weight q against Rz(alpha)
    at q = n - 1 (1 below it) or Rx(alphas[q]).  A Toffoli is H(0), a train on
    the ancilla (qubit n) with qubits 0..n-1 as controls, H(0); with u_q that
    train's 2x2 at weight q, the pattern of qubits 1..n-1 of weight w holds
    H(0) diag(u_w, u_(w+1)) H(0) on (qubit 0, ancilla), judged against
    (X at w = n - 1, else 1) on qubit 0 times 1 on the ancilla: pattern (w, b)
    is its two columns with the ancilla entering |b>, so amplitude that flips
    the ancilla counts as a miss.  The miss of a pattern is the operator norm
    of its columns less e^(i phi) times the ideal's, phi the phase of the
    trace, each weight counted C(m, w) times; phase_distance is 1 less the
    trace's modulus over the block size.
    """
    if kind == "toffoli":
        assert circuit.gates[0] == circuit.gates[-1] and circuit.gates[0].kind == "H" and circuit.gates[0].qubit == 0
        u = train_weight_blocks(circuit.gates[1:-1], n + 1, target=n)
        h = np.kron(H2, np.eye(2))  # index 2 * (qubit 0) + ancilla
        blocks = [h @ block_diag(u[w], u[w + 1]) @ h for w in range(n)]
        ideal = [np.kron(v, np.eye(2)) for v in [np.eye(2)] * (n - 1) + [X2]]
        columns = [[0, 2], [1, 3]]  # the ancilla entering |0>, then |1>
    else:
        blocks = train_weight_blocks(circuit.gates, n, circuit.target_qubit)
        ideal = crot_targets(n, alpha) if kind == "crot" else weighted_targets(alphas)
        columns = [[0, 1]]
    m = len(blocks) - 1
    trace = sum(comb(m, w) / 2**m * np.trace(v.conj().T @ u) for w, (u, v) in enumerate(zip(blocks, ideal)))
    phase = np.exp(1j * np.angle(trace))
    worst = max(np.linalg.norm((u - phase * v)[:, cols], 2) for u, v in zip(blocks, ideal) for cols in columns)
    return float(worst), float(max(0.0, 1.0 - abs(trace) / len(blocks[0]))), bool(worst <= 1e-6)


def pattern_indices(n: int, active=(0,)) -> np.ndarray:
    """Basis indices of each pattern c of the inactive qubits, shape
    (2^(n-k), 2^k) for the k active qubits: bit i of c sits on the i-th
    inactive qubit, ascending, and bit p of column a on qubit active[p]."""

    def spread(x, qubits):
        return sum((((x >> i) & 1) << q for i, q in enumerate(qubits)), np.zeros_like(x))

    inactive = [q for q in range(n) if q not in active]
    return spread(np.arange(2 ** len(inactive)), inactive)[:, None] | spread(np.arange(2 ** len(active)), active)


def dense_verdict(u: np.ndarray, circuit: Circuit, kind: str, n: int, alpha=None, alphas=None) -> tuple[float, float, bool]:
    """(worst_block, phase_distance, passed) of circuit's dense unitary u at 1e-6.

    The ideal V is written out pattern by pattern: every pattern of the
    qubits but the target holds the target 2x2 of its control weight, and a
    Toffoli's ancilla counts toward no weight, so V is Toffoli x 1 with its
    target the lowest qubit but the ancilla.  worst_block is the largest
    2-norm of a pattern's two columns of U - e^(i phi) V, phi = arg tr(V^dag U),
    and phase_distance is 1 - |tr(V^dag U)| / 2^N.
    """
    if kind == "toffoli":
        (ancilla,) = circuit.ancilla_qubits
        target, ideal = int(ancilla == 0), [np.eye(2)] * (n - 1) + [X2]
    else:
        ancilla, target = None, circuit.target_qubit
        ideal = crot_targets(n, alpha) if kind == "crot" else weighted_targets(alphas)
    idx = pattern_indices(circuit.num_qubits, (target,))
    others = [q for q in range(circuit.num_qubits) if q != target]  # bit i of a pattern is qubit others[i]
    controls = [i for i, q in enumerate(others) if q != ancilla]
    v = np.zeros_like(u)
    v[idx[:, :, None], idx[:, None, :]] = [ideal[sum(c >> i & 1 for i in controls)] for c in range(len(idx))]
    trace = np.vdot(v, u)
    miss = u - np.exp(1j * np.angle(trace)) * v
    worst = max(np.linalg.norm(miss[:, cols], 2) for cols in idx)
    return float(worst), float(max(0.0, 1.0 - abs(trace) / len(u))), bool(worst <= 1e-6)


def checked_verdict(circuit: Circuit, kind: str, n: int, **request):
    """``verify_circuit``'s Verdict on a compiled train, once ``oracle_verdict``
    has read the same worst_block, phase_distance and passed."""
    verdict = verify_circuit(circuit, kind, n, **request)
    worst, distance, passed = oracle_verdict(circuit, kind, n, **request)
    assert np.isclose(verdict.worst_block, worst, rtol=1e-9, atol=1e-13), (verdict, worst)
    assert np.isclose(verdict.phase_distance, distance, rtol=1e-9, atol=1e-14), (verdict, distance)
    assert verdict.passed == passed
    return verdict


def solve_pins(points, degree: int, parity: str) -> np.ndarray:
    """Coefficients of the cosine/sine series of a degree meeting every pin.

    points holds (theta, value, pin_derivative); the value and derivative
    pins must number degree + 1 (degree for a sine series, whose k = 0
    term carries no weight), so the system is square.  This is the linear
    solve the closed-form fits replace, kept as their oracle.
    """
    k = np.arange(0 if parity == EVEN else 1, degree + 1)
    rows, rhs = [], []
    for theta, value, pin in points:
        kt = k * theta
        rows.append(np.cos(kt) if parity == EVEN else np.sin(kt))
        rhs.append(value)
        if pin:
            rows.append(-k * np.sin(kt) if parity == EVEN else k * np.cos(kt))
            rhs.append(0.0)
    coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    return coeffs if parity == EVEN else np.concatenate([[0.0], coeffs])


def solve_crot_pins(n: int, alpha: float) -> np.ndarray:
    """Oracle for fit_A: the crot pins folded into [0, pi] by evenness.

    A cosine series is flat at 0 and pi, so only interior points carry a
    derivative pin; the folded count is n, matching degree n - 1.
    """
    folded = [m * np.pi / n for m in sorted({abs(n - 2 - 2 * q) for q in range(n)})]
    points = [
        (t, np.cos(alpha / 2.0) if abs(t - np.pi) < 1e-9 else 1.0, 1e-9 < t < np.pi - 1e-9)
        for t in folded
    ]
    return solve_pins(points, n - 1, EVEN)


def solve_weighted_pins(thetas, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for fit_weight_dependent: A of degree 2N - 1, B of degree 2N,
    each with a value and a derivative pin at every theta_q."""
    n = len(thetas)
    a = solve_pins([(t, np.cos(x / 2.0), True) for t, x in zip(thetas, alphas)], 2 * n - 1, EVEN)
    b = solve_pins([(t, -np.sin(x / 2.0), True) for t, x in zip(thetas, alphas)], 2 * n, ODD)
    return a, b
