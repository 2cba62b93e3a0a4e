"""Exact unitary simulation, ideal reference unitaries and block diagnostics.

Qubit 0 is the least significant bit of the basis-state index, so with the
default target qubit 0 the index reads (controls << 1) | target_bit.

The global pulse exp(-i*tau/4 * (sum_j X_j)^2) is diagonal in the X basis:
a basis state with m qubits along -X picks up the phase
exp(-i*tau*(N-2m)^2/4).  Application is therefore Hadamard-all, a diagonal
phase by Hamming weight, Hadamard-all; the j = k self-terms of the double
sum are kept, contributing a global phase per pulse.

``circuit_unitary`` simulates any gate list literally, but it defers the
work it can fold together.  It keeps a per-qubit Hadamard frame (qubit q's
rows are held in the X basis iff its flag is set) and a pending 2x2 per
qubit, so an ``H`` gate costs nothing, a run of single-qubit gates on one
qubit costs one pass over the matrix, and a pulse only rotates the qubits
not yet in the X frame.  A pass is a single batched 2x2 matmul.
"""

from __future__ import annotations

import numpy as np

from .circuit import H, MS, RX, RY, RZ, Circuit, Gate
from .su2 import HADAMARD, rx, ry, rz

MAX_UNITARY_QUBITS = 14


def _apply_single(amps: np.ndarray, u2: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a 2x2 gate on one qubit of the row index of amps, in one pass."""
    return np.matmul(u2, amps.reshape(2 ** (n - 1 - qubit), 2, -1)).reshape(amps.shape)


def _ms_phases(n: int, tau: float) -> np.ndarray:
    weight = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(float)
    return np.exp(-0.25j * tau * (n - 2.0 * weight) ** 2)


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


def _flush(mat: np.ndarray, frame: list[bool], pending: list, x_frame: bool) -> np.ndarray:
    """Apply every pending 2x2, moving each qubit into (or out of) the X frame.

    Afterwards mat is the whole accumulated unitary with every qubit's rows in
    the X basis (x_frame) or the computational basis (not x_frame).
    """
    n = len(frame)
    for q in range(n):
        u2 = pending[q]
        if frame[q] != x_frame:
            u2 = HADAMARD if u2 is None else HADAMARD @ u2
        if u2 is not None:
            mat = _apply_single(mat, u2, q, n)
        frame[q], pending[q] = x_frame, None
    return mat


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary; column j is the circuit applied to basis state |j>.

    The accumulated unitary is held as U = (prod_q H_q^f_q P_q) M: a matrix
    M, a Hadamard-frame flag f_q and a pending 2x2 P_q (in the frame basis)
    per qubit.  An ``H`` gate on q only flips f_q.  A rotation g on q is
    fused into P_q, conjugated as H g H when f_q is set.  A pulse first
    applies H^(1 - f_q) P_q to each qubit where that is not the identity
    (for a controlled-rotation train: the target alone), then multiplies M
    by its phase diagonal in place, leaving every qubit in the X frame.  The
    end applies H^f_q P_q the same way.
    """
    n = circuit.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"refusing to build a 2^{n} x 2^{n} unitary (limit {MAX_UNITARY_QUBITS})")
    mat = np.eye(2**n, dtype=complex)
    frame = [False] * n
    pending: list[np.ndarray | None] = [None] * n  # None stands for the identity
    phase_cache: dict[float, np.ndarray] = {}
    for gate in circuit.gates:
        if gate.kind == MS:
            mat = _flush(mat, frame, pending, x_frame=True)
            tau = gate.angle
            if tau not in phase_cache:
                phase_cache[tau] = _ms_phases(n, tau)[:, None]
            mat *= phase_cache[tau]
        elif gate.kind == H:
            frame[gate.qubit] = not frame[gate.qubit]
        else:
            q = gate.qubit
            u2 = _gate_matrix(gate)
            if frame[q]:
                u2 = HADAMARD @ u2 @ HADAMARD
            pending[q] = u2 if pending[q] is None else u2 @ pending[q]
    return _flush(mat, frame, pending, x_frame=False)


def _target_blocks(n: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Fancy index of every control pattern's 2x2 block on the target.

    ``u[_target_blocks(n, target)]`` has shape (2^(n-1), 2, 2).  Entry c is
    the block of control pattern c, the basis index with the target bit
    squeezed out; its rows and columns have the target bit 0, then 1.
    """
    ctrl = np.arange(2 ** (n - 1))
    i0 = ((ctrl >> target) << (target + 1)) | (ctrl & ((1 << target) - 1))
    pair = np.stack([i0, i0 | (1 << target)], axis=1)
    return pair[:, :, None], pair[:, None, :]


def ideal_crot(n: int, alpha: float, target: int = 0) -> np.ndarray:
    """Identity except Rz(alpha) on the target when all controls are |1>."""
    dim = 2**n
    idx = np.arange(dim)
    ctrl_mask = (dim - 1) ^ (1 << target)
    sel = (idx & ctrl_mask) == ctrl_mask
    tbit = (idx >> target) & 1
    diag = np.ones(dim, dtype=complex)
    diag[sel & (tbit == 0)] = np.exp(-0.5j * alpha)
    diag[sel & (tbit == 1)] = np.exp(+0.5j * alpha)
    return np.diag(diag)


def ideal_toffoli(n: int) -> np.ndarray:
    """Bitflip on qubit 0 when qubits 1..n-1 are all |1>."""
    if n < 2:
        raise ValueError(f"Toffoli needs at least 2 qubits, got {n}")
    dim = 2**n
    idx = np.arange(dim)
    ctrl_mask = dim - 2
    flip = np.where((idx & ctrl_mask) == ctrl_mask, idx ^ 1, idx)
    u = np.zeros((dim, dim))
    u[flip, idx] = 1.0
    return u.astype(complex)


def ideal_weighted(n: int, alphas, target: int = 0) -> np.ndarray:
    """Block-diagonal Rx(alphas[q]) on the target at control weight q."""
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ValueError(f"need {n} angles, got {len(alphas)}")
    weights = np.bitwise_count(np.arange(2 ** (n - 1)))
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[_target_blocks(n, target)] = np.array([rx(a) for a in alphas])[weights]
    return u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |tr(U^dag V)| / dim: zero iff U and V agree up to a global phase."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    dim = u.shape[0]
    return max(0.0, 1.0 - abs(np.vdot(u, v)) / dim)


def project_ancilla(u: np.ndarray, ancilla: int, bit: int) -> tuple[np.ndarray, float]:
    """Block with the ancilla entering and leaving in the given bit state.

    Leakage is the worst column-norm deficit of that block: zero iff the
    ancilla is restored exactly on every input.
    """
    idx = np.arange(u.shape[0])
    keep = idx[((idx >> ancilla) & 1) == bit]
    block = u[np.ix_(keep, keep)]
    leakage = max(0.0, 1.0 - float(np.min(np.linalg.norm(block, axis=0))))
    return block, leakage


def control_blocks(u: np.ndarray, target: int = 0):
    """Iterate (control_pattern, 2x2 target block) over all control states."""
    yield from enumerate(u[_target_blocks(u.shape[0].bit_length() - 1, target)])


def max_off_block(u: np.ndarray, target: int = 0) -> float:
    """Largest matrix element connecting different control bitstrings."""
    off = np.abs(u)
    off[_target_blocks(u.shape[0].bit_length() - 1, target)] = 0.0
    return float(np.max(off))
