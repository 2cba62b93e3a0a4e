import json

import numpy as np
import pytest
from _helpers import plan_from_merged
from hypothesis import given, settings, strategies as st

from mscompile import (
    Circuit,
    CircuitFormatError,
    CompilationPlan,
    Gate,
    PhaseResetError,
    QubitIndexError,
    UnknownGateError,
    build_crot_circuit,
    build_toffoli_circuit,
    circuit_unitary,
    crot_angles,
    default_params,
    deserialize,
    ideal_toffoli,
    phase_distance,
    plan_merged_angles,
    project_ancilla,
    serialize,
    to_text,
)

PI = np.pi


def _counts(circ):
    out = {}
    for g in circ.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


class TestBuildCrot:
    def test_empty_train(self):
        plan = CompilationPlan(2, PI / 2, -PI / 2, (0.7,))
        circ = build_crot_circuit(plan)
        assert circ.ms_count() == 0
        assert _counts(circ) == {"H": 2, "RZ": 1}

    def test_n3_pulse_count(self):
        circ = build_crot_circuit(crot_angles(3, PI))
        assert circ.ms_count() == 6

    def test_gate_count_structure(self):
        for n, alpha in [(3, 0.3), (5, PI)]:
            plan = crot_angles(n, alpha)
            circ = build_crot_circuit(plan)
            counts = _counts(circ)
            length = plan.num_pulses
            assert counts["H"] == 2 * (n - 1)
            assert counts["MS"] == length == 2 * n
            assert counts["RX"] == length
            assert counts["RZ"] == 2 * length + 1

    def test_refuses_phase_leak(self):
        plan = CompilationPlan(3, PI / 3, -PI / 3, (0.0, 0.1, 0.2, 0.3, 0.4))
        with pytest.raises(PhaseResetError):
            build_crot_circuit(plan)


class TestBuildFromMerged:
    """Circuits built from merged angles: plan_from_merged, then build_crot_circuit."""

    def test_matches_unmerged_circuit(self):
        for n, alpha in [(3, -PI), (4, 0.3), (5, 2 * PI)]:
            plan = crot_angles(n, alpha)
            merged = plan_merged_angles(plan)
            back = plan_from_merged(n, merged)
            np.testing.assert_allclose(plan_merged_angles(back), merged, rtol=0, atol=1e-12)
            direct = circuit_unitary(build_crot_circuit(plan))
            assert phase_distance(direct, circuit_unitary(build_crot_circuit(back))) < 1e-12

    def test_table1_n3_row(self):
        from mscompile import ideal_crot

        row = [-1.855, -2.118, -0.525, -2.118, -1.855, -PI, 0.0]
        circ = build_crot_circuit(plan_from_merged(3, row))
        dist = phase_distance(circuit_unitary(circ), ideal_crot(3, -PI))
        assert dist < 1e-2


class TestToffoli:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_toffoli_circuit(1)

    def test_n2_matches_controlled_x(self):
        circ = build_toffoli_circuit(2)
        assert circ.ms_count() == 6
        block, leakage = project_ancilla(circuit_unitary(circ), 2, 0)
        assert leakage < 1e-10
        assert phase_distance(block, ideal_toffoli(2)) < 1e-6

    def test_n3_matches_ideal(self):
        circ = build_toffoli_circuit(3)
        block, leakage = project_ancilla(circuit_unitary(circ), 3, 0)
        assert leakage < 1e-10
        assert phase_distance(block, ideal_toffoli(3)) < 1e-6

    def test_n4_ms_count(self):
        assert build_toffoli_circuit(4).ms_count() == 10

    def test_ancilla_metadata(self):
        circ = build_toffoli_circuit(3)
        assert circ.ancilla_qubits == frozenset({3})
        assert circ.target_qubit == 0

    def test_refuses_phase_leak(self, monkeypatch):
        # L = 4 pulses on the 4 qubits of a Toffoli n = 3: tau * L = pi, not a multiple of 2*pi
        def unpadded(n, alpha):
            return CompilationPlan(n, *default_params(n), (0.0, 0.1, 0.2, 0.3, 0.4))

        monkeypatch.setattr("mscompile.circuit.crot_angles", unpadded)
        with pytest.raises(PhaseResetError):
            build_toffoli_circuit(3)


def _json_reference(circ):
    """The file as json.dumps(indent=1) writes the circuit's document."""
    gates = []
    for g in circ.gates:
        if g.kind == "MS":
            gates.append({"type": "MS", "tau": g.angle})
        elif g.kind == "H":
            gates.append({"type": "H", "qubit": g.qubit})
        else:
            gates.append({"type": g.kind, "qubit": g.qubit, "angle": g.angle})
    doc = {
        "version": 1,
        "num_qubits": circ.num_qubits,
        "target_qubit": circ.target_qubit,
        "ancilla_qubits": sorted(circ.ancilla_qubits),
        "gates": gates,
    }
    return json.dumps(doc, indent=1).encode()


# every gate kind at the extreme angles: -0.0, the least subnormal, a tiny, a huge and -pi
_EXTREMES = (-0.0, 5e-324, 1e-300, 1e308, -PI)
FORMAT_CASES = {
    "no_gates": lambda: Circuit(3, ()),
    "no_gates_with_ancillas": lambda: Circuit(4, (), target_qubit=1, ancilla_qubits=frozenset({3, 0})),
    "every_kind_extreme_angles": lambda: Circuit(
        5,
        tuple(g for i, a in enumerate(_EXTREMES) for g in (Gate.ms(a), Gate.h(i), Gate.rx(i, a), Gate.ry(4 - i, a), Gate.rz(i, a))),
        target_qubit=2,
        ancilla_qubits=frozenset({4}),
    ),
    "crot": lambda: build_crot_circuit(crot_angles(5, -PI)),
    "toffoli": lambda: build_toffoli_circuit(4),
}


class TestSerialization:
    @pytest.mark.parametrize("case", sorted(FORMAT_CASES))
    def test_file_is_json_dumps_indent_1(self, case):
        circ = FORMAT_CASES[case]()
        assert serialize(circ) == _json_reference(circ)
        assert deserialize(serialize(circ)) == circ

    def test_round_trip(self):
        for circ in (
            build_crot_circuit(crot_angles(3, 0.3)),
            build_toffoli_circuit(2),
            Circuit(1, ()),
        ):
            assert deserialize(serialize(circ)) == circ

    def test_unknown_gate_named(self):
        doc = {"version": 1, "num_qubits": 2, "target_qubit": 0, "ancilla_qubits": [], "gates": [{"type": "CZ", "qubit": 0}]}
        with pytest.raises(UnknownGateError, match="CZ"):
            deserialize(json.dumps(doc))

    def test_empty_circuit_valid(self):
        doc = {"version": 1, "num_qubits": 1, "target_qubit": 0, "ancilla_qubits": [], "gates": []}
        circ = deserialize(json.dumps(doc))
        assert circ.num_qubits == 1 and circ.gates == ()

    def test_malformed_json(self):
        with pytest.raises(CircuitFormatError):
            deserialize(b"{not json")

    def test_index_out_of_range(self):
        doc = {"version": 1, "num_qubits": 2, "target_qubit": 0, "ancilla_qubits": [], "gates": [{"type": "H", "qubit": 5}]}
        with pytest.raises(QubitIndexError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1, "num_qubits": 2, "gates": 5}',
            '{"version": 1, "num_qubits": 2, "gates": null}',
            '{"version": 1, "num_qubits": 1e400, "gates": []}',  # json reads 1e400 as inf
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "H", "qubit": 1e400}]}',
            '{"version": 1, "num_qubits": 3, "gates": [{"type": "RX", "qubit": 1.7, "angle": 0.3}]}',
            '{"version": 1, "num_qubits": 2.9, "gates": []}',
            '{"version": 1, "num_qubits": 2, "target_qubit": 0.5, "gates": []}',
            '{"version": 1, "num_qubits": 3, "ancilla_qubits": [2.2], "gates": []}',
            '{"version": 1, "num_qubits": 3, "gates": [{"type": "H", "qubit": "2"}]}',
            '{"version": 1, "num_qubits": true, "gates": []}',
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "RZ", "qubit": 0, "angle": true}]}',
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "RZ", "qubit": 0, "angle": "0.5"}]}',
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "MS", "tau": false}]}',
            '{"version": 1, "num_qubits": 2, "ancilla_qubits": [true], "gates": []}',
            '{"version": 1.0, "num_qubits": 2, "gates": []}',
            '{"version": true, "num_qubits": 2, "gates": []}',
            '{"version": 1, "num_qubits": 0, "gates": []}',
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "H", "qubit": 0, "angle": 0.5}]}',
            '{"version": 1, "num_qubits": 2, "gates": [{"type": "MS", "qubit": 0, "tau": 0.5}]}',
            "[1, 2]",
            '{"version": 1, "gates": []}',
            '{"version": 1, "num_qubits": 2}',
            '{"version": 1, "num_qubits": 2, "gates": [{"qubit": 0, "angle": 0.3}]}',
            '{"version": 1, "num_qubits": 2, "gates": [["RX", 0, 0.3]]}',
        ],
        ids=[
            "gates_int",
            "gates_null",
            "num_qubits_overflow",
            "qubit_overflow",
            "qubit_float",
            "num_qubits_float",
            "target_float",
            "ancilla_float",
            "qubit_string",
            "num_qubits_bool",
            "angle_bool",
            "angle_string",
            "tau_bool",
            "ancilla_bool",
            "version_float",
            "version_bool",
            "num_qubits_zero",
            "h_with_angle",
            "ms_with_qubit",
            "top_level_list",
            "no_num_qubits",
            "no_gates",
            "gate_without_type",
            "gate_not_an_object",
        ],
    )
    def test_malformed_fields(self, text):
        with pytest.raises(CircuitFormatError):
            deserialize(text)

    def test_bad_version(self):
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps({"version": 7, "num_qubits": 1, "gates": []}))

    def test_angles_survive_round_trip_exactly(self):
        circ = build_crot_circuit(crot_angles(4, 0.12345678901234567))
        back = deserialize(serialize(circ))
        for g1, g2 in zip(circ.gates, back.gates):
            assert g1.angle == g2.angle  # bitwise equality

    def test_text_export(self):
        circ = Circuit(2, (Gate.h(1), Gate.rz(0, 0.5), Gate.ms(0.25), Gate.rx(0, -0.5)))
        lines = to_text(circ).splitlines()
        assert lines == ["h 1", "rz 0 0.5", "ms 0.25", "rx 0 -0.5"]


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("MS", qubit=0, angle=0.1)
    with pytest.raises(ValueError):
        Gate("RZ", qubit=0)
    with pytest.raises(UnknownGateError):
        Gate("CNOT", qubit=0, angle=0.1)
    with pytest.raises(QubitIndexError):
        Circuit(2, (Gate.h(3),))
    with pytest.raises(QubitIndexError, match="target qubit 2 out of range"):
        Circuit(2, (), target_qubit=2)
    with pytest.raises(QubitIndexError, match="ancilla qubit -1 out of range"):
        Circuit(2, (), ancilla_qubits={-1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate.h(True),
        lambda: Gate.rx(1.5, 0.3),
        lambda: Gate.rz("0", 0.3),
        lambda: Gate.rx(0, True),
        lambda: Gate.ms(np.True_),
        lambda: Gate.ry(0, "0.3"),
        lambda: Gate.rz(0, 1j),
        lambda: Gate.rz(0, 10**400),
        lambda: Circuit(2.0, ()),
        lambda: Circuit(True, ()),
        lambda: Circuit(0, ()),
        lambda: Circuit(2, (), target_qubit=0.0),
        lambda: Circuit(2, (), ancilla_qubits=frozenset({True})),
    ],
    ids=[
        "qubit_bool",
        "qubit_float",
        "qubit_string",
        "angle_bool",
        "tau_numpy_bool",
        "angle_string",
        "angle_complex",
        "angle_overflow",
        "num_qubits_float",
        "num_qubits_bool",
        "num_qubits_zero",
        "target_float",
        "ancilla_bool",
    ],
)
def test_library_fields_follow_the_file_rules(build):
    with pytest.raises(ValueError):
        build()


_INTS = st.sampled_from([int, np.int64, np.int32, np.uint8])
_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(lambda x: st.sampled_from([x, np.float64(x)])),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-(2**62), 2**62).flatmap(lambda k: st.sampled_from([k, np.int64(k)])),
)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1).flatmap(lambda q: _INTS.map(lambda t: t(q)))
    gate = st.one_of(
        _REALS.map(Gate.ms),
        qubit.map(Gate.h),
        st.builds(Gate, st.sampled_from(["RX", "RY", "RZ"]), qubit, _REALS),
    )
    ancillas = draw(st.frozensets(qubit, max_size=2))
    return Circuit(draw(_INTS)(n), tuple(draw(st.lists(gate, max_size=8))), draw(qubit), ancillas)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circ=_circuits())
def test_any_circuit_round_trips(circ):
    """Python or numpy ints and floats are stored as int and float, so serialize writes them all."""
    assert serialize(circ) == _json_reference(circ)
    assert deserialize(serialize(circ)) == circ
