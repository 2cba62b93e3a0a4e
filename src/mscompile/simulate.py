"""Exact unitary simulation, ideal reference unitaries, block diagnostics and
the verify verdict (``verify_circuit``).

Qubit 0 is the least significant bit of the basis-state index, so with the
default target qubit 0 the index reads (controls << 1) | target_bit.

The global pulse exp(-i*tau/4 * (sum_j X_j)^2) is diagonal in the X basis:
a basis state with m qubits along -X picks up the phase
exp(-i*tau*(N-2m)^2/4).  Application is therefore Hadamard-all, a diagonal
phase by Hamming weight, Hadamard-all; the j = k self-terms of the double
sum are kept, contributing a global phase per pulse.

``circuit_unitary`` simulates any gate list literally, in two passes.  The
frame pass keeps a per-qubit Hadamard frame (qubit q's rows are held in the
X basis iff its flag is set) and a pending 2x2 per qubit, so an ``H`` gate
costs nothing, a run of single-qubit gates on one qubit fuses into one 2x2,
and a pulse only rotates the qubits not yet in the X frame.  It lists the
fused operations in time order: 2x2s on one qubit each, and pulses.

Pulses are diagonal, so only the qubits that some fused 2x2 acts on (the k
active qubits) ever mix basis states: the unitary is block diagonal, one
2^k x 2^k block per pattern of the N - k inactive bits.  The executor holds
only those blocks, applies each 2x2 as one matmul across all of them and
each pulse as a phase per block row, and writes the dense matrix once at
the end.  A pulse train leaves only its target active (k = 1; a Toffoli
train, qubit 0 and the ancilla), so an operation costs O(2^N) instead of
O(4^N); with every qubit active this is the plain dense simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import H, MS, RX, RY, RZ, Circuit, Gate
from .su2 import HADAMARD, norm_2x2, rx, ry, rz

MAX_UNITARY_QUBITS = 13  # a 14-qubit unitary is 4 GiB, and verify holds two


def _deposit(values: np.ndarray, qubits) -> np.ndarray:
    """Spread bit b of each value to bit qubits[b] of a basis index."""
    out = np.zeros_like(values)
    for bit, q in enumerate(qubits):
        out |= ((values >> bit) & 1) << q
    return out


def _blocks(n: int, active: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Fancy index of every inactive pattern's block over the active qubits.

    ``u[_blocks(n, active)]`` has shape (2^(n-k), 2^k, 2^k) for k active
    qubits.  Entry [c, a, b] is the element whose row has inactive bits c and
    active bits a, and whose column has inactive bits c and active bits b,
    each read in ascending qubit order.  With one active qubit (the target)
    entry c is the 2x2 block of control pattern c, the basis index with the
    target bit squeezed out; its rows and columns have the target bit 0,
    then 1.
    """
    inactive = [q for q in range(n) if q not in active]
    idx = (
        _deposit(np.arange(2 ** len(inactive)), inactive)[:, None]
        | _deposit(np.arange(2 ** len(active)), active)[None, :]
    )
    return idx[:, :, None], idx[:, None, :]


@lru_cache(maxsize=32)
def _store_layout(n: int, active: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fancy index of the block store, and (n - 2w)^2 for the Hamming weight
    w of each store row.

    The store is ``u[_blocks(n, active)]`` with its first two axes swapped,
    shape (2^k, 2^(n-k), 2^k), so that the row bits lead.  Cached per
    (n, active) and read-only, since every call shares them.
    """
    rows, cols = (a.swapaxes(0, 1) for a in _blocks(n, active))
    spin_sq = (n - 2.0 * np.bitwise_count(rows)) ** 2
    for a in (rows, cols, spin_sq):
        a.flags.writeable = False
    return rows, cols, spin_sq


def _apply_single(store: np.ndarray, u2: np.ndarray, bit: int) -> np.ndarray:
    """Apply a 2x2 to bit ``bit`` of the leading (row) axis of store, in one pass."""
    return np.matmul(u2, store.reshape(len(store) >> (bit + 1), 2, -1)).reshape(store.shape)


def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == RX:
        return rx(gate.angle)
    if gate.kind == RY:
        return ry(gate.angle)
    if gate.kind == RZ:
        return rz(gate.angle)
    if gate.kind == H:
        return HADAMARD
    raise ValueError(f"no matrix for gate kind {gate.kind!r}")


def _flush(ops: list, frame: list[bool], pending: list, x_frame: bool) -> None:
    """Append (qubit, 2x2) for every pending 2x2, moving each qubit into (or
    out of) the X frame.

    Once ops is applied, the accumulated unitary has every qubit's rows in
    the X basis (x_frame) or the computational basis (not x_frame).
    """
    for q in range(len(frame)):
        u2 = pending[q]
        if frame[q] != x_frame:
            u2 = HADAMARD if u2 is None else HADAMARD @ u2
        if u2 is not None:
            ops.append((q, u2))
        frame[q], pending[q] = x_frame, None


def _fused_ops(circuit: Circuit) -> list:
    """Frame pass: (qubit, 2x2) per fused gate and (None, tau) per pulse, in order.

    The accumulated unitary is held as U = (prod_q H_q^f_q P_q) M: a
    Hadamard-frame flag f_q and a pending 2x2 P_q (in the frame basis) per
    qubit, and M, the operations listed so far.  An ``H`` gate on q only
    flips f_q.  A rotation g on q is fused into P_q, conjugated as H g H
    when f_q is set.  A pulse first lists H^(1 - f_q) P_q for each qubit
    where that is not the identity (for a controlled-rotation train: the
    target alone), then itself, leaving every qubit in the X frame.  The
    end lists H^f_q P_q the same way.
    """
    ops: list[tuple[int | None, np.ndarray | float]] = []
    frame = [False] * circuit.num_qubits
    pending: list[np.ndarray | None] = [None] * circuit.num_qubits  # None stands for the identity
    for gate in circuit.gates:
        if gate.kind == MS:
            _flush(ops, frame, pending, x_frame=True)
            ops.append((None, gate.angle))
        elif gate.kind == H:
            frame[gate.qubit] = not frame[gate.qubit]
        else:
            q = gate.qubit
            u2 = _gate_matrix(gate)
            if frame[q]:
                u2 = HADAMARD @ u2 @ HADAMARD
            pending[q] = u2 if pending[q] is None else u2 @ pending[q]
    _flush(ops, frame, pending, x_frame=False)
    return ops


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary; column j is the circuit applied to basis state |j>.

    The fused operations of the frame pass are applied to a block store.
    With A the qubits some fused 2x2 acts on (k = |A|), U[i, j] is zero
    unless i and j agree on every bit outside A, so U is held as an array
    of shape (2^k, 2^(N-k), 2^k): entry [a, c, b] is U[i, j] for the row i
    with active bits a and the column j with active bits b, both with
    inactive bits c (see ``_blocks``).  A 2x2 on qubit A[p] is one
    matmul on bit p of the leading axis; a pulse multiplies each row by its
    phase, a function of the Hamming weight of the row's basis index.  The
    store is scattered into the dense 2^N x 2^N result once, at the end.
    """
    n = circuit.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"refusing to build a 2^{n} x 2^{n} unitary (limit {MAX_UNITARY_QUBITS})")
    ops = _fused_ops(circuit)
    active = sorted({q for q, _ in ops if q is not None})
    rows, cols, spin_sq = _store_layout(n, tuple(active))
    store = np.eye(2 ** len(active), dtype=complex)[:, None, :].repeat(cols.shape[1], axis=1)
    phases: dict[float, np.ndarray] = {}
    for q, op in ops:
        if q is None:
            if op not in phases:
                phases[op] = np.exp(-0.25j * op * spin_sq)
            store *= phases[op]
        else:
            store = _apply_single(store, op, active.index(q))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[rows, cols] = store
    return mat


def _block_diagonal(n: int, blocks: np.ndarray, target: int) -> np.ndarray:
    """Dense unitary with the 2x2 blocks[c] on the target at control pattern c.

    Patterns are numbered as in ``_blocks``; all controls |1> is the last.
    """
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[_blocks(n, (target,))] = blocks
    return u


def _controlled(n: int, u2: np.ndarray, target: int) -> np.ndarray:
    """Identity blocks, with u2 on the target when all controls are |1>."""
    blocks = np.tile(np.eye(2, dtype=complex), (2 ** (n - 1), 1, 1))
    blocks[-1] = u2
    return _block_diagonal(n, blocks, target)


def ideal_crot(n: int, alpha: float, target: int = 0) -> np.ndarray:
    """Identity except Rz(alpha) on the target when all controls are |1>."""
    return _controlled(n, rz(alpha), target)


def ideal_toffoli(n: int) -> np.ndarray:
    """Bitflip on qubit 0 when qubits 1..n-1 are all |1>."""
    if n < 2:
        raise ValueError(f"Toffoli needs at least 2 qubits, got {n}")
    return _controlled(n, np.array([[0.0, 1.0], [1.0, 0.0]]), 0)


def ideal_weighted(n: int, alphas, target: int = 0) -> np.ndarray:
    """Block-diagonal Rx(alphas[q]) on the target at control weight q."""
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ValueError(f"need {n} angles, got {len(alphas)}")
    weights = np.bitwise_count(np.arange(2 ** (n - 1)))
    return _block_diagonal(n, np.array([rx(a) for a in alphas])[weights], target)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |tr(U^dag V)| / dim: zero iff U and V agree up to a global phase.

    NaN when either matrix holds a NaN, so it never meets a tolerance.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    dim = u.shape[0]
    return float(np.maximum(0.0, 1.0 - abs(np.vdot(u, v)) / dim))


def worst_block(u: np.ndarray, v: np.ndarray, target: int = 0) -> float:
    """max over control patterns c of ||(U - e^(i*phi) V)[:, c]||_2, phi = arg tr(V^dag U).

    (...)[:, c] is control pattern c's two columns (target bit 0, then 1),
    taken over every row.  For a block-diagonal U this is the miss of c's
    2x2 target block; amplitude that leaks to another pattern counts at
    first order.  Every pattern counts in full, so a miss in the one block a
    controlled gate acts on is not diluted by 2^(N-1), and for unitary V
    |tr(V^dag U)| >= dim * (1 - worst), so phase_distance <= worst.  NaN
    when either matrix holds a NaN, so it never meets a tolerance.

    Each pattern's 2x2 Gram matrix is summed over row chunks.  Within a
    chunk, a pattern whose columns vanish in both U and V adds nothing, so
    only the others are gathered.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    dim = u.shape[0]
    hi, lo = dim // 2 ** (target + 1), 2**target
    phase = np.exp(1j * np.angle(np.vdot(v, u)))
    gram = np.zeros((hi, lo, 2, 2), dtype=complex)
    for start in range(0, dim, 32):
        # axes (row, high bits, target bit, low bits); with 32 rows a
        # block-diagonal chunk gathers about 32^2 entries
        uc = u[start : start + 32].reshape(-1, hi, 2, lo)
        vc = v[start : start + 32].reshape(-1, hi, 2, lo)
        h, l = np.nonzero((uc.any(axis=0) | vc.any(axis=0)).any(axis=1))
        d = uc[:, h, :, l] - phase * vc[:, h, :, l]  # (pattern, row, target bit)
        gram[h, l] += d.conj().swapaxes(1, 2) @ d
    return float(np.sqrt(np.max(norm_2x2(gram))))


def project_ancilla(u: np.ndarray, ancilla: int, bit: int) -> tuple[np.ndarray, float]:
    """Block with the ancilla entering and leaving in the given bit state.

    Leakage is the largest norm of the amplitude that an input with the
    ancilla in ``bit`` leaves with the ancilla flipped: zero iff the ancilla
    is restored exactly on every input, and first order in a small leak.
    Raises ValueError unless 0 <= ancilla < N and bit is 0 or 1.
    """
    n = u.shape[0].bit_length() - 1
    if not 0 <= ancilla < n:
        raise ValueError(f"ancilla {ancilla} is not a qubit of a {n}-qubit unitary")
    if bit not in (0, 1):
        raise ValueError(f"ancilla bit must be 0 or 1, got {bit}")
    hi, lo = 2 ** (n - ancilla - 1), 2**ancilla
    # basis index = (high bits, ancilla bit, low bits), for rows and columns;
    # np.array copies, so the block never aliases u (a reshape alone would
    # return a view when the ancilla is the top qubit)
    split = u.reshape(hi, 2, lo, hi, 2, lo)
    block = np.array(split[:, bit, :, :, bit, :]).reshape(hi * lo, hi * lo)
    # the block that flips the ancilla, its last axis split into (re, im)
    leak = split[:, 1 - bit, :, :, bit, :].view(float)
    col_sq = np.einsum("abij,abij->ij", leak, leak).reshape(hi, lo, 2).sum(axis=-1)
    return block, float(np.sqrt(np.max(col_sq)))


@dataclass(frozen=True)
class Verdict:
    """What ``verify_circuit`` measured, and whether the circuit passed."""

    worst_block: float
    leakage: float  # of the Toffoli ancilla; 0.0 for the other kinds
    phase_distance: float
    passed: bool


def verify_circuit(circuit: Circuit, kind: str, n: int, alpha=None, alphas=None, tolerance: float = 1e-6) -> Verdict:
    """Simulate circuit and judge it against the ideal gate of kind on n qubits.

    kind is "crot" (needs alpha), "toffoli" (n logical qubits plus one
    ancilla, projected onto the ancilla entering and leaving |0>) or
    "weighted" (needs alphas).  The circuit passes iff ``worst_block`` and
    the ancilla leakage are both at most tolerance; a NaN passes nothing.
    ``phase_distance`` is reported, not judged.  A qubit count that does not
    fit kind, a missing angle, or a tolerance that is negative or not finite
    raises ValueError before anything is simulated.
    """
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    if kind == "toffoli":
        if circuit.num_qubits != n + 1 or len(circuit.ancilla_qubits) != 1:
            raise ValueError("toffoli target expects n+1 qubits and one ancilla")
    elif kind in ("crot", "weighted"):
        if circuit.num_qubits != n:
            raise ValueError(f"circuit has {circuit.num_qubits} qubits, target expects {n}")
        if kind == "crot" and alpha is None:
            raise ValueError("crot target needs --alpha")
        if kind == "weighted" and alphas is None:
            raise ValueError("weighted target needs --alphas")
    else:
        raise ValueError(f"unknown target kind {kind!r}")

    u = circuit_unitary(circuit)
    leakage, target = 0.0, circuit.target_qubit
    if kind == "toffoli":
        u, leakage = project_ancilla(u, next(iter(circuit.ancilla_qubits)), 0)
        ideal, target = ideal_toffoli(n), 0
    elif kind == "crot":
        ideal = ideal_crot(n, alpha, target=target)
    else:
        ideal = ideal_weighted(n, alphas, target=target)
    block_miss = worst_block(u, ideal, target)
    passed = block_miss <= tolerance and leakage <= tolerance
    return Verdict(block_miss, leakage, phase_distance(u, ideal), passed)
