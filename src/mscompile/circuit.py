"""Gate-level IR: pulse-train emission, merged-angle printout, serialization.

Gates are either the global entangling pulse ``MS`` (always acts on every
qubit, so it carries no qubit index) or single-qubit ``RX``/``RY``/``RZ``/``H``.
Circuits are immutable; builders return fresh objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .su2 import canonical_angle
from .subspace import _check_size, _index, _real, phase_reset_ok
from .synthesis import CompilationPlan, crot_angles

MS = "MS"
RX = "RX"
RY = "RY"
RZ = "RZ"
H = "H"
_ROTATIONS = (RX, RY, RZ)


class CircuitFormatError(ValueError):
    """Serialized circuit cannot be parsed."""


class UnknownGateError(CircuitFormatError):
    """Serialized circuit names a gate this IR does not define."""


class QubitIndexError(CircuitFormatError):
    """A gate references a qubit outside the circuit."""


class PhaseResetError(ValueError):
    """A caller-built plan would leak control-dependent phases (tau * L not a 2*pi multiple)."""


@dataclass(frozen=True)
class Gate:
    kind: str
    qubit: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind == MS:
            if self.qubit is not None or self.angle is None:
                raise ValueError("MS is global: needs tau, takes no qubit index")
        elif self.kind in _ROTATIONS:
            if self.qubit is None or self.angle is None:
                raise ValueError(f"{self.kind} needs a qubit index and an angle")
        elif self.kind == H:
            if self.qubit is None or self.angle is not None:
                raise ValueError("H needs a qubit index and takes no angle")
        else:
            raise UnknownGateError(f"unknown gate kind {self.kind!r}")
        if self.qubit is not None:
            object.__setattr__(self, "qubit", _index(self.qubit, "qubit"))
        if self.angle is not None:
            object.__setattr__(self, "angle", _real(self.angle, f"{self.kind} angle", finite=True))

    @classmethod
    def ms(cls, tau: float) -> Gate:
        return cls(MS, angle=tau)

    @classmethod
    def rx(cls, qubit: int, angle: float) -> Gate:
        return cls(RX, qubit, angle)

    @classmethod
    def ry(cls, qubit: int, angle: float) -> Gate:
        return cls(RY, qubit, angle)

    @classmethod
    def rz(cls, qubit: int, angle: float) -> Gate:
        return cls(RZ, qubit, angle)

    @classmethod
    def h(cls, qubit: int) -> Gate:
        return cls(H, qubit)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    target_qubit: int = 0
    ancilla_qubits: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        num_qubits = _index(self.num_qubits, "num_qubits")
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        target = _index(self.target_qubit, "target_qubit")
        if not 0 <= target < num_qubits:
            raise QubitIndexError(f"target qubit {target} out of range")
        ancillas = frozenset(_index(q, "ancilla qubit") for q in self.ancilla_qubits)
        for q in ancillas:
            if not 0 <= q < num_qubits:
                raise QubitIndexError(f"ancilla qubit {q} out of range")
        for gate in self.gates:
            if gate.qubit is not None and not 0 <= gate.qubit < num_qubits:
                raise QubitIndexError(f"{gate.kind} on qubit {gate.qubit} out of range for {num_qubits} qubits")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "target_qubit", target)
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "ancilla_qubits", ancillas)

    def ms_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == MS)


def build_crot_circuit(plan: CompilationPlan, target: int = 0) -> Circuit:
    """Emit the pulse train of a compiled plan; every gate kind comes through here.

    The controls get a Hadamard sandwich around L pulse blocks.  Pulses run
    j = L down to 1; each block is Rz(-phi_j), MS(tau), Rx(h), Rz(phi_j) on
    the target, and Rz(phi_0) closes the train.  A plan whose tau * L is not
    a multiple of 2*pi raises PhaseResetError.
    """
    if not phase_reset_ok(plan.num_pulses, plan.tau):
        raise PhaseResetError(
            f"tau * L = {plan.tau * plan.num_pulses:.6f} is not a multiple of 2*pi; "
            "the circuit would leak control-dependent phases"
        )
    controls = [q for q in range(plan.n) if q != target]
    gates = [Gate.h(q) for q in controls]
    ms, rx = Gate.ms(plan.tau), Gate.rx(target, plan.h)  # frozen, so every pulse shares them
    # indexed rather than sliced: CPython 3.11 puts a freed 20-item tuple on a
    # free list that it never allocates from, so a 21-angle plan's slice would stay
    for j in range(plan.num_pulses, 0, -1):
        phi = plan.phis[j]
        gates += [Gate.rz(target, -phi), ms, rx, Gate.rz(target, phi)]
    gates.extend(Gate.h(q) for q in controls)
    gates.append(Gate.rz(target, plan.phis[0]))
    return Circuit(plan.n, tuple(gates), target_qubit=target)


def plan_merged_angles(plan: CompilationPlan) -> list[float]:
    """Combined z-rotations of the train, listed in reverse time order.

    Entry 0 absorbs phi_0 into the last slot; entry 2N equals -phi_L and is
    applied first.  A printout only (``crot-angles --merged``, ``table``):
    circuits are emitted from the plan by ``build_crot_circuit``.
    """
    phis = plan.phis
    L = plan.num_pulses
    merged = [phis[0] + phis[1] if L else phis[0]]
    merged += [phis[j + 1] - phis[j] for j in range(1, L)]
    if L:
        merged.append(-phis[L])
    return [canonical_angle(m) for m in merged]


def build_toffoli_circuit(n: int) -> Circuit:
    """N-qubit Toffoli (n-1 controls, target = qubit 0) with one ancilla.

    A controlled Rz(2*pi) with all n logical qubits as controls puts a -1
    on the all-ones control state while returning the ancilla (qubit n,
    the rotation target) to |0>; conjugating the Toffoli target with
    Hadamards turns that controlled phase into a bitflip.  Costs 2(n+1)
    global pulses.
    """
    n = _check_size(n)
    inner = build_crot_circuit(crot_angles(n + 1, 2.0 * math.pi), target=n).gates
    gates = (Gate.h(0), *inner, Gate.h(0))
    return Circuit(n + 1, gates, target_qubit=0, ancilla_qubits=frozenset({n}))


# each gate kind's entry in the "gates" list as json.dumps(indent=1) lays it out: %d an index, %r an angle
_GATE_JSON = {
    MS: '  {\n   "type": "MS",\n   "tau": %r\n  }',
    H: '  {\n   "type": "H",\n   "qubit": %d\n  }',
    **{kind: '  {\n   "type": "%s",\n   "qubit": %%d,\n   "angle": %%r\n  }' % kind for kind in _ROTATIONS},
}


def _json_list(items: list[str]) -> str:
    """A top-level list of already indented items, as json.dumps(indent=1) writes it."""
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def serialize(circuit: Circuit) -> bytes:
    """Canonical JSON encoding (lossless round-trip of double angles).

    Byte-identical to ``json.dumps(doc, indent=1)`` of {version, num_qubits,
    target_qubit, ancilla_qubits (sorted), gates}, each gate {type, tau} (MS),
    {type, qubit} (H) or {type, qubit, angle}, but written directly: one text
    template, joined from one per gate kind, filled once with the indices and
    angles, ints and floats by ``Gate``'s rules, which json also writes by repr.
    """
    ancillas = sorted(circuit.ancilla_qubits)
    template = (
        '{\n "version": 1,\n "num_qubits": %d,\n "target_qubit": %d,\n "ancilla_qubits": '
        + _json_list(["  %d"] * len(ancillas))
        + ',\n "gates": '
        + _json_list([_GATE_JSON[g.kind] for g in circuit.gates])
        + "\n}"
    )
    fields = [v for g in circuit.gates for v in (g.qubit, g.angle) if v is not None]  # in each template's order
    return (template % (circuit.num_qubits, circuit.target_qubit, *ancillas, *fields)).encode()


def deserialize(data: bytes | str) -> Circuit:
    """Parse the JSON encoding; malformed input raises CircuitFormatError.

    Only the format is checked here: an object with ``version`` the integer
    1, ``gates`` and ``ancilla_qubits`` lists, and a ``type`` in each gate.
    The fields go to ``Gate`` and ``Circuit`` as read, so a file is held to
    the same rules as a library caller.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top level must be an object")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise CircuitFormatError(f"unsupported format version {version!r}")
    try:
        num_qubits, raw_gates = doc["num_qubits"], doc["gates"]
    except KeyError as exc:
        raise CircuitFormatError(f"missing field: {exc}") from exc
    raw_ancillas = doc.get("ancilla_qubits", [])
    for name, value in (("gates", raw_gates), ("ancilla_qubits", raw_ancillas)):
        if not isinstance(value, list):
            raise CircuitFormatError(f"{name} must be a list, got {type(value).__name__}")
    try:
        gates = []
        for entry in raw_gates:
            if not isinstance(entry, dict) or "type" not in entry:
                raise CircuitFormatError(f"gate entry {entry!r} lacks a type")
            kind = entry["type"]
            gates.append(Gate(kind, entry.get("qubit"), entry.get("tau" if kind == MS else "angle")))
        return Circuit(num_qubits, tuple(gates), doc.get("target_qubit", 0), raw_ancillas)
    except CircuitFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise CircuitFormatError(str(exc)) from exc


def to_text(circuit: Circuit) -> str:
    """Write-only text export: one gate per line."""
    lines = []
    for gate in circuit.gates:
        if gate.kind == MS:
            lines.append(f"ms {gate.angle!r}")
        elif gate.kind == H:
            lines.append(f"h {gate.qubit}")
        else:
            lines.append(f"{gate.kind.lower()} {gate.qubit} {gate.angle!r}")
    return "\n".join(lines) + "\n"
