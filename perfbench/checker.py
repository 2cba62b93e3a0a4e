"""Exact check of an emitted circuit, independent of the program's synthesis
and simulation code.

The check reads the circuit's JSON encoding, as written by ``compile --out``,
and uses nothing from ``mscompile``. Every circuit the compiler emits applies
H to each control before the first global pulse and again after the last one,
puts no other gate on a control, and rotates only the target. Inside that
sandwich the controls stay in their computational basis, so MS(tau) acts on a
control bitstring of Hamming weight q as

    exp(-i tau (S^2 + 1) / 4) Rx(tau S)   on the target,  S = N - 1 - 2q.

The circuit is therefore block diagonal with one 2x2 target block U_q per
weight, and weight q occurs C(N-1, q) times, so

    1 - |tr(U^dag V)| / 2^N = 1 - |sum_q C(N-1, q) tr(U_q^dag V_q)| / 2^N

costs O(N) 2x2 products per gate instead of a 2^N x 2^N unitary.
"""

from __future__ import annotations

import json
import math

import numpy as np

_I2 = np.eye(2, dtype=complex)
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


class UnsupportedCircuit(ValueError):
    """The circuit is not a control-symmetric pulse train this check covers."""


def _rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma_axis)."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if axis == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "RZ":
        return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])
    raise UnsupportedCircuit(f"unknown rotation {axis!r}")


def _rx_stack(angles: np.ndarray) -> np.ndarray:
    c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
    out = np.empty((len(angles), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = out[:, 1, 0] = -1j * s
    return out


def weight_blocks(gates: list[dict], num_qubits: int, target: int) -> np.ndarray:
    """Target blocks U_q, q = 0..N-1, of a gate list in application order."""
    controls = [q for q in range(num_qubits) if q != target]
    flipped = dict.fromkeys(controls, False)
    spin = num_qubits - 1 - 2.0 * np.arange(num_qubits)  # S for each weight q
    blocks = np.broadcast_to(_I2, (num_qubits, 2, 2)).copy()
    for gate in gates:
        kind, qubit = gate["type"], gate.get("qubit")
        if kind == "MS":
            if not all(flipped.values()):
                raise UnsupportedCircuit("global pulse outside the control Hadamard sandwich")
            tau = float(gate["tau"])
            phase = np.exp(-0.25j * tau * (spin**2 + 1.0))
            blocks = (phase[:, None, None] * _rx_stack(tau * spin)) @ blocks
        elif qubit == target:
            step = _H2 if kind == "H" else _rotation(kind, float(gate["angle"]))
            blocks = step @ blocks
        elif kind == "H" and qubit in flipped:
            flipped[qubit] = not flipped[qubit]
        else:
            raise UnsupportedCircuit(f"{kind} on control qubit {qubit}")
    if any(flipped.values()):
        raise UnsupportedCircuit("control Hadamard sandwich left open")
    return blocks


def _multiplicities(num_qubits: int) -> np.ndarray:
    return np.array([math.comb(num_qubits - 1, q) for q in range(num_qubits)], dtype=float)


def _trace_distance(blocks: np.ndarray, ideal: np.ndarray) -> float:
    num_qubits = len(blocks)
    traces = np.einsum("qji,qji->q", blocks.conj(), ideal)
    overlap = abs(np.dot(_multiplicities(num_qubits), traces)) / 2.0**num_qubits
    return max(0.0, 1.0 - overlap)


def _ideal_blocks(request: dict) -> np.ndarray:
    n = request["n"]
    if request["kind"] == "weighted":
        return np.stack([_rotation("RX", float(a)) for a in request["alphas"]])
    ideal = np.broadcast_to(_I2, (n, 2, 2)).copy()
    ideal[n - 1] = _rotation("RZ", float(request["alpha"]))
    return ideal


def check(payload: bytes, request: dict) -> tuple[float, int]:
    """Distance of a serialized circuit from the requested gate, and its MS count.

    ``request`` is ``{"kind": "crot", "n", "alpha"}``,
    ``{"kind": "weighted", "n", "alphas"}`` or ``{"kind": "toffoli", "n"}``.
    The distance has the definition ``mscompile verify`` uses: the global-phase
    invariant distance over the whole register for crot and weighted, and over
    the block with the ancilla entering and leaving in |0> for Toffoli.
    """
    doc = json.loads(payload)
    if doc.get("version") != 1:
        raise UnsupportedCircuit(f"unsupported format version {doc.get('version')!r}")
    gates = doc["gates"]
    ms_count = sum(1 for g in gates if g["type"] == "MS")
    n = request["n"]
    if request["kind"] != "toffoli":
        if doc["num_qubits"] != n:
            raise UnsupportedCircuit(f"circuit has {doc['num_qubits']} qubits, request needs {n}")
        blocks = weight_blocks(gates, n, doc["target_qubit"])
        return _trace_distance(blocks, _ideal_blocks(request)), ms_count

    # Toffoli_n: H(0), a C^n Rz(2 pi) train on the ancilla (qubit n) with
    # qubits 0..n-1 as controls, H(0). The train puts -1 on the all-ones
    # controls, which the H(0) sandwich turns into a bitflip of qubit 0.
    sandwich = {"type": "H", "qubit": 0}
    if (
        doc["num_qubits"] != n + 1
        or doc["target_qubit"] != 0
        or doc["ancilla_qubits"] != [n]
        or len(gates) < 2
        or gates[0] != sandwich
        or gates[-1] != sandwich
    ):
        raise UnsupportedCircuit("not an H(0)-sandwiched controlled-phase train with ancilla n")
    blocks = weight_blocks(gates[1:-1], n + 1, target=n)
    # ancilla in and out in |0>: the block is H(0) diag(U_q[0,0]) H(0), and the
    # ideal is H(0) diag(+1 for q < n, -1 for q = n) H(0)
    signs = np.ones(n + 1)
    signs[n] = -1.0
    overlap = abs(np.dot(_multiplicities(n + 1), blocks[:, 0, 0].conj() * signs)) / 2.0**n
    return max(0.0, 1.0 - overlap), ms_count
