"""Exact unitary simulation, ideal reference unitaries, diagnostics and the
verify verdict (``verify_circuit``).

Qubit 0 is the least significant bit of the basis-state index, so with the
default target qubit 0 the index reads (controls << 1) | target_bit.

The global pulse exp(-i*tau/4 * (sum_j X_j)^2) is diagonal in the X basis:
a basis state with m qubits along -X picks up the phase
exp(-i*tau*(N-2m)^2/4).  Application is therefore Hadamard-all, a diagonal
phase by Hamming weight, Hadamard-all; the j = k self-terms of the double
sum are kept, contributing a global phase per pulse.

``circuit_unitary`` simulates any gate list literally, in two passes.  The
frame pass keeps a per-qubit Hadamard frame (qubit q's rows are held in the
X basis iff its flag is set) and a pending rotation per qubit, so an ``H``
gate costs nothing, a rotation on a qubit in the X frame is recorded as its
conjugate of the swapped kind (H Rx H = Rz, H Ry(t) H = Ry(-t), H Rz H = Rx),
and a run of rotations on one qubit fuses in scalar arithmetic into one
2x2.  A pulse rotates only the qubits not yet in the X frame, and after the
first pulse it visits only the set of qubits that some gate touched since
the previous one.  It lists the fused operations in time order: 2x2s on
one qubit each, and pulses.

Pulses are diagonal, so only the qubits that some fused 2x2 acts on (the k
active qubits) ever mix basis states: the unitary is block diagonal, one
2^k x 2^k block per pattern of the N - k inactive bits, and since a pulse
phases a row by its Hamming weight, every pattern of one weight holds the
same block.  The executor holds one per weight (the block store), applies
each 2x2 as one matmul across all of them and each pulse as a phase per
block row.  ``circuit_unitary`` scatters the store into the dense matrix;
``verify_circuit`` judges the store itself, on one path for every kind: the
target, then a Toffoli's ancilla, sit on its lowest bits, and the ancilla,
borrowed in any state, is one more bit of the control pattern.  A pulse
train leaves only its target active (k = 1; a Toffoli train, qubit 0 and
the ancilla), so an operation costs O(N) instead of O(4^N).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .circuit import H, MS, RX, RY, RZ, Circuit
from .su2 import HADAMARD, matrix, norm_2x2, rotation, rx, rz
from .subspace import _angles, _check_size, _index, _real

MAX_UNITARY_QUBITS = 13  # a 14-qubit unitary is 4 GiB; a block store holds at most 4^13 entries
VERIFY_TOLERANCE = 1e-6  # the default of verify_circuit and of mscompile verify --tolerance
# a rotation's (axis, sign of its angle) in the computational frame, and in the X frame: H X H = Z, H Y H = -Y
_AXES = {RX: ("x", 1.0), RY: ("y", 1.0), RZ: ("z", 1.0)}
_X_FRAME_AXES = {RX: ("z", 1.0), RY: ("y", -1.0), RZ: ("x", 1.0)}


def _refuse_dense(n: int) -> None:
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"refusing to build a 2^{n} x 2^{n} unitary (limit {MAX_UNITARY_QUBITS})")


def _scatter(by_weight: np.ndarray, n: int, active) -> np.ndarray:
    """Dense 2^n x 2^n matrix with by_weight[w], a 2^k x 2^k block over the active
    qubits, at every inactive pattern of weight w.  Row c of the index holds
    pattern c's basis indices over the active bits, each part read in ascending
    qubit order; a weight's rows take its block by broadcasting."""
    inactive = [q for q in range(n) if q not in active]
    # axis i of the reshaped range is qubit n - 1 - i: inactive, then active, each highest first
    axes = [n - 1 - q for q in reversed([*active, *inactive])]
    index = np.arange(2**n).reshape((2,) * n).transpose(axes).reshape(2 ** len(inactive), 2 ** len(active))
    # the patterns by weight, so that weight w's rows are the next comb(n - k, w)
    index = index[np.argsort(np.bitwise_count(np.arange(len(index))), kind="stable")]
    rows, cols = index[:, :, None], index[:, None, :]
    mat = np.zeros((2**n, 2**n), dtype=complex)
    start = 0
    for w, block in enumerate(by_weight):
        stop = start + comb(len(inactive), w)
        mat[rows[start:stop], cols[start:stop]] = block
        start = stop
    return mat


def _apply_single(store: np.ndarray, u2: np.ndarray, bit: int) -> np.ndarray:
    """Apply a 2x2 to bit ``bit`` of the leading (row) axis of store, in one pass."""
    return np.matmul(u2, store.reshape(len(store) >> (bit + 1), 2, -1)).reshape(store.shape)


def _flush(ops: list, frame: list[bool], pending: dict, qubits, x_frame: bool) -> None:
    """Append (qubit, 2x2) for each of qubits, ascending, that holds a pending
    2x2 or is out of the x_frame, moving it into (or out of) the X frame.

    The caller passes every qubit for which that may hold: once ops is
    applied, the accumulated unitary has every qubit's rows in the X basis
    (x_frame) or the computational basis (not x_frame).
    """
    for q in sorted(qubits):
        flip = frame[q] != x_frame
        if q in pending:
            u2 = matrix(*pending.pop(q))
            ops.append((q, HADAMARD @ u2 if flip else u2))
        elif flip:
            ops.append((q, HADAMARD))
        frame[q] = x_frame


def _fused_ops(circuit: Circuit) -> list:
    """Frame pass: (qubit, 2x2) per fused gate and (None, tau) per pulse, in order.

    The accumulated unitary is held as U = (prod_q H_q^f_q P_q) M: a
    Hadamard-frame flag f_q and a pending SU(2) element P_q (in the frame
    basis, as ``su2.rotation``'s (a, b) pair) per qubit, and M, the
    operations listed so far.  An ``H`` gate on q only flips f_q.  A
    rotation on q is fused into P_q in scalar arithmetic; when f_q is set it
    is recorded as its conjugate, H Rx(t) H = Rz(t), H Ry(t) H = Ry(-t),
    H Rz(t) H = Rx(t).  A pulse first lists H^(1 - f_q) P_q wherever that is
    not the identity, then itself, leaving every qubit in the X frame; the
    end lists H^f_q P_q the same way.  Only the first pulse and the end
    visit every qubit (in a circuit with no pulse, an untouched one lists
    nothing); otherwise only the qubits some gate touched since the last
    pulse can need it, so a controlled-rotation train costs O(1) per gate
    and its 2x2s act on the target alone.
    """
    ops: list[tuple[int | None, np.ndarray | float]] = []
    frame = [False] * circuit.num_qubits
    pending: dict[int, tuple[complex, complex]] = {}  # absent stands for the identity
    touched = set(range(circuit.num_qubits))  # before the first pulse, every qubit counts as touched
    for gate in circuit.gates:
        q = gate.qubit
        if gate.kind == MS:
            _flush(ops, frame, pending, touched, x_frame=True)
            ops.append((None, gate.angle))
            touched = set()
        elif gate.kind == H:
            frame[q] = not frame[q]
            touched.add(q)
        else:
            axis, sign = (_X_FRAME_AXES if frame[q] else _AXES)[gate.kind]
            a, b = rotation(axis, sign * gate.angle)
            a0, b0 = pending.get(q, (1.0, 0.0))
            pending[q] = a * a0 - b.conjugate() * b0, b * a0 + a.conjugate() * b0
            touched.add(q)
    _flush(ops, frame, pending, range(circuit.num_qubits), x_frame=False)
    return ops


def _block_store(circuit: Circuit, first=()) -> tuple[np.ndarray, list[int]]:
    """The circuit's block store and its active qubits in bit order: the
    qubits in first, in order and active whether a gate touches them or
    not, then the others ascending.

    For k active qubits the store has shape (2^k, N-k+1, 2^k): entry
    [a, w, b] is the element whose row has active bits a, whose column has
    active bits b, and whose inactive bits, the same in both, have Hamming
    weight w.  The fused operations of the frame pass run on it: a 2x2 on
    active[p] is one matmul on bit p of the leading axis, and a pulse a phase
    per row, from its weight |a| + w.  A store over 4^MAX_UNITARY_QUBITS
    entries raises ValueError before it is allocated.
    """
    n = circuit.num_qubits
    ops = _fused_ops(circuit)
    active = [*first, *sorted({q for q, _ in ops if q is not None}.difference(first))]
    k = len(active)
    if 4**k * (n - k + 1) > 4**MAX_UNITARY_QUBITS:
        raise ValueError(f"refusing to simulate {k} active of {n} qubits: 4^{k} x {n - k + 1} > 4^13 store entries")
    spin_sq = (n - 2.0 * (np.bitwise_count(np.arange(2**k))[:, None, None] + np.arange(n - k + 1)[:, None])) ** 2
    store = np.eye(2**k, dtype=complex)[:, None, :].repeat(n - k + 1, axis=1)
    phases: dict[float, np.ndarray] = {}
    bit = {q: p for p, q in enumerate(active)}
    for q, op in ops:
        if q is None:
            if op not in phases:
                phases[op] = np.exp(-0.25j * op * spin_sq)
            store *= phases[op]
        else:
            store = _apply_single(store, op, bit[q])
    return store, active


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, column j the circuit applied to |j>: ``_block_store``
    scattered into 2^N x 2^N, refused above MAX_UNITARY_QUBITS before it runs."""
    _refuse_dense(circuit.num_qubits)
    store, active = _block_store(circuit)
    return _scatter(store.swapaxes(0, 1), circuit.num_qubits, active)


def _read_request(kind: str, n, alpha=None, alphas=None) -> tuple[int, list[float]]:
    """The one reader of a request, building nothing: n, and crot's [alpha], weighted's n alphas
    or toffoli's [].  An unknown kind, an n not an integer >= 1 (2 for toffoli) or an angle
    that is not real raises ValueError."""
    if kind not in ("crot", "toffoli", "weighted"):
        raise ValueError(f"unknown target kind {kind!r}")
    n = _check_size(n, 2 if kind == "toffoli" else 1)
    if kind == "weighted":
        return n, _angles(alphas, n)
    return n, [_real(alpha, "alpha")] if kind == "crot" else []


def _ideal_blocks(kind: str, n: int, angles: list[float]) -> np.ndarray:
    """The ideal 2x2 on the target at each control weight 0..n-1 of a read
    request, shape (n, 2, 2): crot's Rz(alpha) and toffoli's bitflip at weight
    n - 1 and the identity below it, weighted's Rx(alphas[w]) at weight w."""
    if kind == "weighted":
        return np.array([rx(a) for a in angles])
    blocks = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    blocks[-1] = rz(angles[0]) if kind == "crot" else [[0.0, 1.0], [1.0, 0.0]]
    return blocks


def _dense_ideal(kind: str, n, target, alpha=None, alphas=None) -> np.ndarray:
    """A request's ideal as a dense matrix; refused above MAX_UNITARY_QUBITS, and unless
    target is an integer in range (``Circuit.target_qubit``'s rule), before it is built."""
    n, angles = _read_request(kind, n, alpha, alphas)
    _refuse_dense(n)
    if not 0 <= _index(target, "target_qubit") < n:
        raise ValueError(f"target qubit {target} out of range for {n} qubits")
    return _scatter(_ideal_blocks(kind, n, angles), n, (target,))


def ideal_crot(n: int, alpha: float, target: int = 0) -> np.ndarray:
    """Identity except Rz(alpha) on the target when all controls are |1>."""
    return _dense_ideal("crot", n, target, alpha=alpha)


def ideal_toffoli(n: int) -> np.ndarray:
    """Bitflip on qubit 0 when qubits 1..n-1 are all |1>."""
    return _dense_ideal("toffoli", n, 0)


def ideal_weighted(n: int, alphas, target: int = 0) -> np.ndarray:
    """Block-diagonal Rx(alphas[q]) on the target at control weight q."""
    return _dense_ideal("weighted", n, target, alphas=alphas)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |tr(U^dag V)| / dim: zero iff U and V agree up to a global phase.

    NaN when either matrix holds a NaN, so it never meets a tolerance.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    dim = u.shape[0]
    return float(np.maximum(0.0, 1.0 - abs(np.vdot(u, v)) / dim))


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
    phase_distance: float
    passed: bool


def verify_circuit(circuit: Circuit, kind: str, n: int, alpha=None, alphas=None, tolerance=VERIFY_TOLERANCE) -> Verdict:
    """Simulate circuit and judge it against the ideal gate of kind on n qubits.

    kind is "crot" (needs alpha), "toffoli" (n logical qubits plus one
    ancilla, judged as Toffoli x 1: the train works on a borrowed ancilla in
    any state) or "weighted" (needs alphas).  With V the ideal, one 2x2 on
    the target per control pattern, ``worst_block`` is the largest operator
    norm of a pattern's two columns of U - e^(i*phi) V over every row, phi =
    arg tr(V^dag U): a miss in its own block and amplitude leaked to another
    pattern count at first order, and for unitary V it bounds
    ``phase_distance``, 1 - |tr(V^dag U)| / dim, which is reported, not
    judged.  Both come from ``_block_store`` with the target, then the
    ancilla, on its lowest bits, seen as (r, target) on rows and columns:
    the ancilla is bit 0 of r, and left out of the control weight, so
    amplitude that flips it leaves its pattern.  The trace weighs inactive
    weight w by its exact share of the patterns, so no qubit count
    overflows.  No dense U or V is built; a store over 4^13 entries raises
    ValueError.  The circuit passes iff ``worst_block`` is at most
    tolerance; a NaN passes nothing.  Every request error is a ValueError
    raised before anything is built or simulated: (kind, n, alpha, alphas)
    by ``_read_request``, the rules of the dense ``ideal_*`` and the
    synthesis entry points, then a tolerance not a finite real number >= 0,
    then a circuit of the wrong size.
    """
    n, angles = _read_request(kind, n, alpha, alphas)
    if not 0.0 <= _real(tolerance, "tolerance") < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    if kind == "toffoli":
        if circuit.num_qubits != n + 1 or len(circuit.ancilla_qubits) != 1:
            raise ValueError("toffoli target expects n+1 qubits and one ancilla")
    elif circuit.num_qubits != n:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, target expects {n}")

    # the target, then the ancilla; the Toffoli target is its qubit 0, the lowest qubit but the ancilla
    first = ((int(0 in circuit.ancilla_qubits), *circuit.ancilla_qubits) if kind == "toffoli"
             else (circuit.target_qubit,))
    store, _ = _block_store(circuit, first)
    # rows and columns as (other active bits r, target bit); a Toffoli's ancilla is bit 0 of r, and no control
    r = len(store) >> 1
    block = store.reshape(r, 2, -1, r, 2)  # (r, target, w, r, target), a view
    m = block.shape[2] - 1  # inactive qubits
    weight = np.arange(m + 1)[:, None] + np.bitwise_count(np.arange(r) >> (len(first) - 1))  # pattern (w, r)
    ideal = _ideal_blocks(kind, n, angles)[weight]  # built only once the circuit fits
    own = np.einsum("riwrj->wrij", block)  # each pattern's own target block, a view
    # weight w's share C(m, w) / 2^m of the m inactive qubits' patterns: int / int is correctly rounded at any m
    shares = np.array([comb(m, w) / 2**m for w in range(m + 1)])
    trace = np.vdot(ideal, own * shares[:, None, None, None])  # tr(V^dag U) / 2^(inactive qubits)
    own -= np.exp(1j * np.angle(trace)) * ideal
    # each pattern's two columns over every row: its own block, less the
    # ideal, and the amplitude leaked to the other patterns
    gram = sum(row.conj()[..., :, None] * row[..., None, :] for rows in block for row in rows)
    block_miss = float(np.sqrt(np.max(norm_2x2(gram))))
    return Verdict(block_miss, float(np.maximum(0.0, 1.0 - abs(trace) / (2 * r))), block_miss <= tolerance)
