import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from _helpers import (
    column_pair_miss,
    dense_ms,
    embed,
    off_block_max,
    oracle_verdict,
    pattern_indices,
    slow_unitary,
    target_blocks,
)

from mscompile import (
    Circuit,
    Gate,
    build_crot_circuit,
    build_toffoli_circuit,
    circuit_unitary,
    crot_angles,
    ideal_crot,
    ideal_toffoli,
    ideal_weighted,
    phase_distance,
    project_ancilla,
    verify_circuit,
    weighted_angles,
)
from mscompile import simulate
from mscompile.simulate import _fused_ops
from mscompile.su2 import rx, rz

PI = np.pi


def _random_circuit(rng, n, length):
    """Gate list drawn uniformly over every gate kind and every qubit."""
    gates = []
    for _ in range(length):
        kind = rng.choice(["MS", "H", "RX", "RY", "RZ"])
        if kind == "MS":
            gates.append(Gate.ms(rng.uniform(-PI, PI)))
        elif kind == "H":
            gates.append(Gate.h(int(rng.integers(n))))
        else:
            gates.append(Gate(str(kind), int(rng.integers(n)), rng.uniform(-2 * PI, 2 * PI)))
    return Circuit(n, tuple(gates))


def _gate_by_gate(circ, j):
    """|j> pushed through the circuit one single-gate unitary at a time."""
    state = np.zeros(2**circ.num_qubits, dtype=complex)
    state[j] = 1.0
    for gate in circ.gates:
        state = _apply(state, gate, circ.num_qubits)
    return state


def _apply(state, gate, n):
    """One gate applied to a state vector through its circuit_unitary."""
    return circuit_unitary(Circuit(n, (gate,))) @ state


# Hand-built 3-qubit cases for the Hadamard frame and the fused pending gates
FRAME_CASES = {
    "every_kind_every_qubit": [
        g
        for q in range(3)
        for g in (Gate.h(q), Gate.rx(q, 0.3), Gate.ms(0.7), Gate.ry(q, -1.1), Gate.rz(q, 2.0))
    ],
    "h_on_target": [
        Gate.h(1), Gate.h(2), Gate.ms(0.4), Gate.h(0),
        Gate.ms(0.4), Gate.h(0), Gate.h(1), Gate.h(2),
    ],
    "control_rotations_between_pulses": [
        Gate.h(1), Gate.h(2), Gate.ms(0.5), Gate.ry(1, 0.7),
        Gate.rz(2, -0.3), Gate.ms(0.5), Gate.h(1), Gate.h(2),
    ],
    "back_to_back_ms": [Gate.rx(0, 0.2), Gate.ms(0.3), Gate.ms(-1.7), Gate.ms(2.9)],
    "runs_of_h": [
        Gate.h(0), Gate.h(0), Gate.h(0), Gate.rz(0, 0.9), Gate.h(0), Gate.h(0),
        Gate.ms(0.6), Gate.h(1), Gate.h(1), Gate.h(1),
    ],
    "ends_in_x_frame": [Gate.h(0), Gate.ms(0.8)],
    "ends_with_pending": [Gate.ms(0.8), Gate.rx(0, 0.4), Gate.h(0), Gate.ry(0, 1.3), Gate.rz(2, 0.2)],
}

# 3-qubit gate lists, and the qubit of each fused op in order (None for a pulse):
# a pulse or the end lists only the qubits whose frame flag or pending 2x2 changed
FLUSH_CASES = {
    # H on a control between pulses takes it out of the X frame: it is flushed again
    "h_on_control_between_pulses": (
        [Gate.h(1), Gate.h(2), Gate.ms(0.5), Gate.h(1), Gate.ms(0.5), Gate.h(1), Gate.h(2)],
        [0, None, 1, None, 0],
    ),
    # two H on one qubit cancel: nothing is listed for them
    "two_h_between_pulses": (
        [Gate.h(0), Gate.h(1), Gate.h(2), Gate.ms(0.5), Gate.h(1), Gate.h(1), Gate.ms(0.5), Gate.h(0), Gate.h(1), Gate.h(2)],
        [None, None],
    ),
    "ry_in_x_frame": (
        [Gate.h(1), Gate.h(2), Gate.ms(0.6), Gate.ry(0, 0.7), Gate.ry(1, -1.3), Gate.ms(0.6), Gate.h(1), Gate.h(2)],
        [0, None, 0, 1, None, 0],
    ),
    "rotations_after_last_pulse": (
        [Gate.h(1), Gate.h(2), Gate.ms(0.6), Gate.rx(0, 0.3), Gate.rz(1, -0.8), Gate.ry(2, 1.2), Gate.ry(2, 0.4)],
        [0, None, 0, 1, 2],
    ),
    "no_ms": (
        [Gate.h(0), Gate.rx(1, 0.4), Gate.h(0), Gate.ry(2, -0.6), Gate.rz(1, 1.0), Gate.h(2)],
        [1, 2],
    ),
}


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = _apply(np.array([1.0, 0.0]), Gate.h(0), 1)
        np.testing.assert_allclose(state, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_ms_single_qubit_is_global_phase(self):
        tau = 0.9
        state = _apply(np.array([0, 1.0]), Gate.ms(tau), 1)
        want = np.exp(-0.25j * tau) * np.array([0, 1.0])
        np.testing.assert_allclose(state, want, atol=1e-14)

    def test_ms_two_qubits_closed_form(self):
        tau = 1.234
        got = circuit_unitary(Circuit(2, (Gate.ms(tau),)))
        xx = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
        want = np.exp(-0.5j * tau) * (np.cos(tau / 2) * np.eye(4) - 1j * np.sin(tau / 2) * xx)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_norm_preserved(self):
        rng = np.random.default_rng(20)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = amps / np.linalg.norm(amps)
        for gate in (Gate.ms(0.41), Gate.h(1), Gate.rx(2, 0.3), Gate.rz(0, -1.2), Gate.ry(1, 2.2)):
            state = _apply(state, gate, 3)
            assert abs(np.linalg.norm(state) - 1) < 1e-12


class TestCircuitUnitary:
    def test_empty_circuit(self):
        np.testing.assert_array_equal(circuit_unitary(Circuit(2, ())), np.eye(4))

    def test_single_hadamard(self):
        got = circuit_unitary(Circuit(1, (Gate.h(0),)))
        np.testing.assert_allclose(got, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ms_matches_dense_exponential(self, n):
        tau = 0.7318
        got = circuit_unitary(Circuit(n, (Gate.ms(tau),)))
        np.testing.assert_allclose(got, dense_ms(n, tau), atol=1e-12)

    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(21)
        gates = (
            Gate.h(2),
            Gate.rz(0, 0.37),
            Gate.ms(0.81),
            Gate.rx(0, -0.44),
            Gate.ry(1, 1.91),
            Gate.ms(0.29),
            Gate.h(0),
            Gate.rz(2, -2.2),
        )
        circ = Circuit(3, gates)
        np.testing.assert_allclose(circuit_unitary(circ), slow_unitary(circ), atol=1e-12)
        # column convention: column j is the circuit applied to |j>
        np.testing.assert_allclose(circuit_unitary(circ)[:, 5], _gate_by_gate(circ, 5), atol=1e-12)

    def test_all_active_peak_is_the_store_and_the_matrix(self):
        # every qubit active: the store holds one dense-sized block, and the scatter
        # writes it into the matrix with no third copy of that size
        n = 11
        gates = tuple(Gate.rx(q, 0.3 + 0.1 * q) for q in range(n)) + (Gate.ms(0.7),)
        circ = Circuit(n, gates + tuple(Gate.ry(q, 0.2 - 0.05 * q) for q in range(n)))
        tracemalloc.start()
        try:
            u = circuit_unitary(circ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * u.nbytes

    def test_size_guard(self):
        # a 14-qubit unitary is 4 GiB, and a store of 13 active qubits at N = 20 holds 8 * 4^13
        # entries (8 GiB): each is refused before anything is allocated
        refused = [lambda n=n: circuit_unitary(Circuit(n, ())) for n in (14, 15)]
        refused += [lambda: ideal_crot(14, 0.3), lambda: ideal_toffoli(14), lambda: ideal_weighted(14, [0.3] * 14)]
        # one 2x2 per control weight at n = 10^12 would be 64 TB: refused before any is built
        refused += [lambda: ideal_crot(10**12, 0.3), lambda: ideal_toffoli(10**12)]
        wide = Circuit(20, tuple(Gate.rx(q, 0.3) for q in range(13)))
        refused.append(lambda: verify_circuit(wide, "crot", 20, alpha=0.3))
        tracemalloc.start()
        try:
            for call in refused:
                with pytest.raises(ValueError, match="refusing"):
                    call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestFrameTracker:
    """circuit_unitary's per-qubit frame and fusion against plain references."""

    @staticmethod
    def _check(circ):
        n = circ.num_qubits
        got = circuit_unitary(circ)
        np.testing.assert_allclose(got, slow_unitary(circ), atol=1e-12)
        for j in range(2**n):
            np.testing.assert_allclose(got[:, j], _gate_by_gate(circ, j), atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(900 + seed)
        self._check(_random_circuit(rng, 1 + seed % 5, int(rng.integers(1, 25))))

    @pytest.mark.parametrize("case", sorted(FRAME_CASES))
    def test_frame_cases(self, case):
        self._check(Circuit(3, tuple(FRAME_CASES[case])))

    @pytest.mark.parametrize("case", sorted(FLUSH_CASES))
    def test_flushes_only_what_changed(self, case):
        gates, listed = FLUSH_CASES[case]
        circ = Circuit(3, tuple(gates))
        self._check(circ)
        assert [q for q, _ in _fused_ops(circ)] == listed

    def test_ry_in_the_x_frame_is_recorded_with_its_sign_flipped(self):
        circ = Circuit(2, (Gate.h(1), Gate.ms(0.4), Gate.ry(0, 0.7), Gate.ms(0.4), Gate.h(1)))
        held = [u2 for q, u2 in _fused_ops(circ) if q == 0][1]  # between the pulses, in the X frame
        c, s = np.cos(0.35), np.sin(0.35)
        np.testing.assert_allclose(held, [[c, s], [-s, c]], atol=1e-15)  # Ry(-0.7) = H Ry(0.7) H

    @pytest.mark.parametrize("target", [0, 31])
    def test_a_compiled_train_touches_its_target_alone(self, target):
        ops = _fused_ops(build_crot_circuit(crot_angles(64, 1.1), target=target))
        assert {q for q, _ in ops if q is not None} == {target}


def _with_control_rx(circ, qubit):
    """The train with one RX on a control inserted after its middle pulse."""
    gates = list(circ.gates)
    pulses = [i for i, g in enumerate(gates) if g.kind == "MS"]
    mid = pulses[len(pulses) // 2] + 1
    gates.insert(mid, Gate.rx(qubit, 0.45))
    return Circuit(circ.num_qubits, tuple(gates), target_qubit=circ.target_qubit)


def _sandwich(n, middle):
    """H on every qubit that ``middle`` leaves alone, around ``middle``."""
    hs = tuple(Gate.h(q) for q in range(n) if all(g.qubit != q for g in middle))
    return Circuit(n, (*hs, *middle, *hs))


# name -> (circuit builder, qubits the fused 2x2s act on)
BLOCK_CASES = {
    "crot_target_1": (lambda: build_crot_circuit(crot_angles(3, 0.7), target=1), [1]),
    "crot_target_2": (lambda: build_crot_circuit(crot_angles(4, -2.1), target=2), [2]),
    "weighted_target_1": (lambda: build_crot_circuit(weighted_angles(3, (0.4, -1.1, 2.0)), target=1), [1]),
    "weighted_target_2": (lambda: build_crot_circuit(weighted_angles(4, (0.3, 1.2, -0.8, 2.5)), target=2), [2]),
    "toffoli_3": (lambda: build_toffoli_circuit(3), [0, 3]),
    "toffoli_4": (lambda: build_toffoli_circuit(4), [0, 4]),
    "hadamard_sandwich": (lambda: _sandwich(3, [Gate.ms(0.9)]), []),
    "control_rx_mid_train": (lambda: _with_control_rx(build_crot_circuit(crot_angles(4, 1.3)), 2), [0, 2]),
    # generic, non-symmetric blocks, so a transposed store shows
    "target_rotations": (
        lambda: _sandwich(4, [Gate.ry(1, 0.8), Gate.ms(0.7), Gate.rz(1, -1.9), Gate.rx(1, 0.6), Gate.ms(-1.3), Gate.ry(1, 2.2)]),
        [1],
    ),
    "two_qubit_rotations": (
        lambda: _sandwich(4, [Gate.ry(3, 0.5), Gate.rx(1, -0.9), Gate.ms(1.1), Gate.rz(3, 0.4), Gate.ry(1, 1.7), Gate.ms(0.3)]),
        [1, 3],
    ),
}


class TestBlockStore:
    """circuit_unitary on circuits whose fused 2x2s touch only some qubits."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_reference(self, case):
        build, active = BLOCK_CASES[case]
        circ = build()
        assert sorted({q for q, _ in _fused_ops(circ) if q is not None}) == active
        np.testing.assert_allclose(circuit_unitary(circ), slow_unitary(circ), atol=1e-12)


class TestIdealUnitaries:
    @pytest.mark.parametrize("n, target", [(n, t) for n in range(2, 7) for t in sorted({0, n // 2, n - 1})])
    def test_blocks_match_definition(self, n, target):
        alpha, alphas = 0.7 * n, np.linspace(-2.0, 2.5, n)
        last = 2 ** (n - 1) - 1
        cases = [
            (ideal_crot(n, alpha, target), lambda c: rz(alpha) if c == last else np.eye(2)),
            (ideal_weighted(n, alphas, target), lambda c: rx(alphas[bin(c).count("1")])),
        ]
        if target == 0:  # the Toffoli target is always qubit 0
            x = np.array([[0, 1], [1, 0]])
            cases.append((ideal_toffoli(n), lambda c: x if c == last else np.eye(2)))
        for u, want in cases:
            assert off_block_max(u, target) == 0.0
            for c, idx in enumerate(pattern_indices(n, target)):
                np.testing.assert_array_equal(u[np.ix_(idx, idx)], want(c))

    def test_crot_identity_angle(self):
        np.testing.assert_array_equal(ideal_crot(3, 0.0), np.eye(8))

    def test_crot_2pi_is_controlled_minus_one(self):
        np.testing.assert_allclose(ideal_crot(2, 2 * PI), np.diag([1, 1, -1, -1]), atol=1e-15)

    def test_crot_n3_pi_block(self):
        u = ideal_crot(3, PI)
        np.testing.assert_allclose(u[6:, 6:], np.diag([np.exp(-0.5j * PI), np.exp(0.5j * PI)]), atol=1e-15)
        np.testing.assert_allclose(u[:6, :6], np.eye(6), atol=1e-15)

    def test_toffoli_n2_is_cnot(self):
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        np.testing.assert_array_equal(ideal_toffoli(2), want)

    def test_toffoli_n3_swaps_110_111(self):
        u = ideal_toffoli(3)
        assert u[6, 7] == 1 and u[7, 6] == 1
        assert u[6, 6] == 0 and u[7, 7] == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_toffoli_squares_to_identity(self, n):
        u = ideal_toffoli(n)
        np.testing.assert_array_equal(u @ u, np.eye(2**n))

    def test_weighted_blocks(self):
        alphas = (0.2, 0.9, 1.7)
        u = ideal_weighted(3, alphas)
        for ctrl, block in enumerate(target_blocks(u)):
            np.testing.assert_allclose(block, rx(alphas[bin(ctrl).count('1')]), atol=1e-15)


_N_TAKERS = {
    "ideal_crot": lambda n: ideal_crot(n, 1.0),
    "ideal_toffoli": ideal_toffoli,
    "ideal_weighted": lambda n: ideal_weighted(n, [0.1] * 3),
    "weighted_angles": lambda n: weighted_angles(n, [0.1] * 3),
    "build_toffoli_circuit": build_toffoli_circuit,
}
_ALPHAS_TAKERS = {"ideal_weighted": lambda a: ideal_weighted(3, a), "weighted_angles": lambda a: weighted_angles(3, a)}
_TARGET_TAKERS = {"ideal_crot": lambda t: ideal_crot(3, 1.0, t), "ideal_weighted": lambda t: ideal_weighted(3, [0.1] * 3, t)}
BAD_REQUESTS = {
    **{f"{name}-n={v!r}": (f, v, "n must be an integer|need n >= ")
       for name, f in _N_TAKERS.items() for v in (True, 3.0, "3", None, 0)},
    **{f"{name}-n=1": (f, 1, "need n >= 2") for name, f in _N_TAKERS.items() if "toffoli" in name},
    **{f"ideal_crot-alpha={v!r}": (lambda a: ideal_crot(3, a), v, "alpha must be a real number")
       for v in (True, "x", None, 1j)},
    **{f"{name}-alphas={v!r}": (f, v, "alphas")
       for name, f in _ALPHAS_TAKERS.items() for v in (5, None, [1j, 1, 1], [1, 2], [0.1, True, 0.3], ["0.1", 0.2, 0.3])},
    **{f"{name}-target={v!r}": (f, v, "target") for name, f in _TARGET_TAKERS.items() for v in (3, -1, 1.0, True)},
}


@pytest.mark.parametrize("case", BAD_REQUESTS.values(), ids=BAD_REQUESTS.keys())
def test_entry_points_reject_the_same_bad_requests(case):
    """Each request rule has one owner, so every entry point raises the same ValueError."""
    call, value, match = case
    with pytest.raises(ValueError, match=match):
        call(value)


class TestPhaseDistance:
    def test_nan_is_not_clamped(self):
        u = np.eye(4, dtype=complex)
        v = u.copy()
        v[2, 2] = np.nan
        assert np.isnan(phase_distance(u, v))
        assert not phase_distance(u, v) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            phase_distance(np.eye(4, dtype=complex), np.eye(8, dtype=complex))

    def test_equal(self):
        u = circuit_unitary(Circuit(2, (Gate.h(0), Gate.ms(0.3))))
        assert phase_distance(u, u) == pytest.approx(0.0, abs=1e-15)

    def test_global_phase_invisible(self):
        eye = np.eye(4, dtype=complex)
        assert phase_distance(eye, np.exp(0.77j) * eye) == pytest.approx(0.0, abs=1e-15)

    def test_worst_block_sees_the_controlled_block(self):
        circ = build_crot_circuit(crot_angles(6, 1.1), target=2)
        verdict = verify_circuit(circ, "crot", 6, alpha=1.15)
        u, v = circuit_unitary(circ), ideal_crot(6, 1.15, target=2)
        phase = np.vdot(v, u) / abs(np.vdot(v, u))
        want = max(np.linalg.norm(bu - phase * bv, 2) for bu, bv in zip(target_blocks(u, 2), target_blocks(v, 2)))
        assert verdict.worst_block == pytest.approx(want, rel=1e-12)
        # the trace weighs the one differing block by 2^-5
        assert verdict.phase_distance < 1e-4 < 1e-2 < want

    def test_worst_block_counts_leakage_at_first_order(self):
        # RX(2e-3) on control qubit 3 moves amplitude sin(1e-3) to another pattern;
        # with the in-block miss 1 - cos(1e-3), each column misses by 2 sin(5e-4)
        circ = build_crot_circuit(crot_angles(6, 0.7))
        verdict = verify_circuit(Circuit(6, (Gate.rx(3, 2e-3),) + circ.gates), "crot", 6, alpha=0.7)
        assert verdict.worst_block == pytest.approx(2 * np.sin(5e-4), rel=1e-9)
        assert verdict.phase_distance < 1e-6 and not verdict.passed

    def test_orthogonal_pair(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        assert phase_distance(np.eye(2, dtype=complex), z) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_matches_trace_formula_on_non_unitary_pairs(self, dim):
        rng = np.random.default_rng(dim)
        u, v = (0.3 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) for _ in range(2))
        want = max(0.0, 1.0 - abs(np.trace(u.conj().T @ v)) / dim)
        assert phase_distance(u, v) == pytest.approx(want, abs=1e-14)


class TestProjectAncilla:
    def test_identity(self):
        block, leakage = project_ancilla(np.eye(8, dtype=complex), 2, 0)
        np.testing.assert_array_equal(block, np.eye(4))
        assert leakage == 0.0

    def test_x_on_ancilla_leaks_fully(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        u = np.kron(x, np.eye(4))  # X on qubit 2 of 3
        _, leakage = project_ancilla(u, 2, 0)
        assert leakage == pytest.approx(1.0)

    def test_small_leak_reads_first_order(self):
        u = embed(3, rx(1e-3), 2)  # RX(1e-3) on the ancilla, qubit 2
        _, leakage = project_ancilla(u, 2, 0)
        assert leakage == pytest.approx(np.sin(5e-4), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_gather_reference(self, n):
        """The strided block equals the index gather bit for bit; the leakage,
        the largest column norm of the block that flips the ancilla, sums
        squares in another order, so it may differ by rounding."""
        rng = np.random.default_rng(n)
        u = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        u /= np.linalg.norm(u, axis=0)  # unit columns, so every block leaks
        idx = np.arange(2**n)
        for ancilla in range(n):
            for bit in (0, 1):
                keep = idx[((idx >> ancilla) & 1) == bit]
                flip = idx[((idx >> ancilla) & 1) != bit]
                want = u[np.ix_(keep, keep)]
                want_leakage = float(np.max(np.linalg.norm(u[np.ix_(flip, keep)], axis=0)))
                block, leakage = project_ancilla(u, ancilla, bit)
                np.testing.assert_array_equal(block, want)
                assert not np.shares_memory(block, u)
                assert 0.0 < leakage == pytest.approx(want_leakage, rel=1e-14)

    @pytest.mark.parametrize(
        "ancilla, bit, match",
        [(3, 0, "ancilla 3"), (7, 0, "ancilla 7"), (-1, 0, "ancilla -1"), (0, 2, "bit"), (0, -1, "bit")],
    )
    def test_rejects_invalid_ancilla_or_bit(self, ancilla, bit, match):
        with pytest.raises(ValueError, match=match):
            project_ancilla(np.eye(8, dtype=complex), ancilla, bit)


def _covering_circuit(rng, n):
    """Every gate kind on every qubit, shuffled with as many pulses, on a drawn target."""
    gates = [Gate(kind, q, rng.uniform(-2 * PI, 2 * PI)) for kind in ("RX", "RY", "RZ") for q in range(n)]
    gates += [Gate.h(q) for q in range(n)] + [Gate.ms(rng.uniform(-PI, PI)) for _ in range(n)]
    return Circuit(n, tuple(gates[i] for i in rng.permutation(len(gates))), int(rng.integers(n)))


def _compiled(kind, n, target=0, seed=0):
    """A compiled circuit of kind with drawn angles, as verify_circuit's arguments."""
    rng = np.random.default_rng(seed)
    if kind == "toffoli":
        return build_toffoli_circuit(n), kind, n, {}
    if kind == "crot":
        alpha = rng.uniform(-2 * PI, 2 * PI)
        return build_crot_circuit(crot_angles(n, alpha), target), kind, n, {"alpha": alpha}
    alphas = tuple(rng.uniform(-PI, PI, n))
    return build_crot_circuit(weighted_angles(n, alphas), target), kind, n, {"alphas": alphas}


def _relabelled_toffoli(n, ancilla):
    """A Toffoli train with its ancilla, qubit n, moved to qubit ancilla and
    the logical qubits from there on moved up by one."""
    perm = [*range(ancilla), *range(ancilla + 1, n + 1), ancilla]
    circ = build_toffoli_circuit(n)
    gates = tuple(g if g.qubit is None else replace(g, qubit=perm[g.qubit]) for g in circ.gates)
    return Circuit(n + 1, gates, perm[0], {ancilla}), "toffoli", n, {}


def _kicked_toffoli(seed, between=False):
    """A Toffoli train with small rotations on random qubits, the ancilla
    among them; two of ten have the ancilla moved to qubit 0, and with
    between the train is relabelled to hold it on a drawn qubit strictly
    between 0 and n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    ancilla = int(rng.integers(1, n)) if between else 0 if seed >= 8 else n
    qubits = (ancilla, *rng.integers(n + 1, size=2))
    kicks = [Gate(str(rng.choice(["RX", "RY", "RZ"])), q, rng.uniform(-0.1, 0.1)) for q in qubits]
    circ = _relabelled_toffoli(n, ancilla)[0] if between else build_toffoli_circuit(n)
    return Circuit(n + 1, circ.gates + tuple(kicks), 0, {ancilla}), "toffoli", n, {}


def _ci_leak(kind):
    """The CI step's leak circuits: RX(1e-3) on control 3 before a crot
    train, and on the ancilla after a Toffoli train."""
    if kind == "crot":
        circ = build_crot_circuit(crot_angles(10, PI / 3))
        return Circuit(10, (Gate.rx(3, 1e-3),) + circ.gates), "crot", 10, {"alpha": PI / 3}
    circ = build_toffoli_circuit(9)
    return Circuit(10, circ.gates + (Gate.rx(9, 1e-3),), 0, circ.ancilla_qubits), "toffoli", 9, {}


def _random_verdict_case(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    circ = _covering_circuit(rng, n)
    if seed % 2:
        return circ, "crot", n, {"alpha": rng.uniform(-2 * PI, 2 * PI)}
    return circ, "weighted", n, {"alphas": tuple(rng.uniform(-PI, PI, n))}


VERDICT_CASES = {
    **{f"{kind}{n}": (lambda kind=kind, n=n: _compiled(kind, n, seed=n))
       for kind in ("crot", "weighted", "toffoli") for n in range(2, 9 if kind != "toffoli" else 8)},
    "crot5_target2": lambda: _compiled("crot", 5, target=2),
    "weighted4_target3": lambda: _compiled("weighted", 4, target=3),
    "ci_crot10_leak": lambda: _ci_leak("crot"),
    "ci_toffoli9_leak": lambda: _ci_leak("toffoli"),
    **{f"random{seed}": (lambda seed=seed: _random_verdict_case(seed)) for seed in range(30)},
    **{f"toffoli_kicked{seed}": (lambda seed=seed: _kicked_toffoli(seed)) for seed in range(10)},
    **{f"toffoli_kicked{seed}_ancilla_between": (lambda seed=seed: _kicked_toffoli(seed, between=True))
       for seed in range(10)},
    **{f"toffoli{n}_ancilla{a}": (lambda n=n, a=a: _relabelled_toffoli(n, a)) for n in (2, 4, 5) for a in range(n)},
}


def _dense_verdict(circ, kind, n, alpha=None, alphas=None):
    """worst_block, leakage and phase_distance from the dense unitary: the
    LAPACK column-pair miss, project_ancilla and phase_distance."""
    u, leakage, target = circuit_unitary(circ), 0.0, circ.target_qubit
    if kind == "toffoli":
        u, leakage = project_ancilla(u, next(iter(circ.ancilla_qubits)), 0)
        ideal, target = ideal_toffoli(n), 0
    elif kind == "crot":
        ideal = ideal_crot(n, alpha, target)
    else:
        ideal = ideal_weighted(n, alphas, target)
    return column_pair_miss(u, ideal, target), leakage, phase_distance(u, ideal)


class TestVerifyCircuit:
    @pytest.mark.parametrize("kind", ["crot", "toffoli", "weighted"])
    def test_compiled_gates_pass_on_the_measures_it_reports(self, kind):
        circ, _, _, args = _compiled(kind, 3, seed=3)
        verdict = verify_circuit(circ, kind, 3, **args)
        block_miss, leakage, distance = _dense_verdict(circ, kind, 3, **args)
        assert verdict.passed and verdict.worst_block < 1e-12
        assert verdict.worst_block == pytest.approx(block_miss, rel=1e-12, abs=1e-15)
        assert verdict.leakage == pytest.approx(leakage, rel=1e-12, abs=1e-15)
        assert verdict.phase_distance == pytest.approx(distance, abs=1e-14)

    @pytest.mark.parametrize("case", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
    def test_verdict_matches_the_dense_reference(self, case):
        circ, kind, n, args = case()
        verdict = verify_circuit(circ, kind, n, **args)
        block_miss, leakage, distance = _dense_verdict(circ, kind, n, **args)
        assert verdict.worst_block == pytest.approx(block_miss, rel=1e-12, abs=1e-15)
        assert verdict.leakage == pytest.approx(leakage, rel=1e-12, abs=1e-15)
        assert verdict.phase_distance == pytest.approx(distance, abs=1e-14)
        assert verdict.passed == (block_miss <= 1e-6 and leakage <= 1e-6)

    def test_a_miss_above_tolerance_fails(self):
        circ = build_crot_circuit(crot_angles(3, 0.3))
        verdict = verify_circuit(circ, "crot", 3, alpha=0.31)
        assert not verdict.passed and verdict.worst_block == pytest.approx(2 * np.sin(0.0025), rel=1e-9)
        assert verify_circuit(circ, "crot", 3, alpha=0.31, tolerance=1e-2).passed

    def test_a_nan_passes_nothing(self):
        circ = build_crot_circuit(crot_angles(3, 0.3))
        for kind, args in (("crot", {"alpha": np.nan}), ("weighted", {"alphas": (0.3, np.nan, 0.1)})):
            verdict = verify_circuit(circ, kind, 3, tolerance=10.0, **args)
            assert np.isnan(verdict.worst_block) and np.isnan(verdict.phase_distance)
            assert not verdict.passed

    def test_a_global_phase_is_invisible(self):
        # on one qubit a pulse is the phase exp(-i*tau/4)
        verdict = verify_circuit(Circuit(1, (Gate.ms(3.08),)), "crot", 1, alpha=0.0)
        assert verdict.worst_block == pytest.approx(0.0, abs=1e-15)
        assert verdict.phase_distance == pytest.approx(0.0, abs=1e-15)
        # RZ(2*pi) on the target is -1
        circ = build_crot_circuit(crot_angles(4, 1.1))
        flipped = Circuit(4, circ.gates + (Gate.rz(0, 2 * PI),))
        want = verify_circuit(circ, "crot", 4, alpha=1.1).worst_block
        assert verify_circuit(flipped, "crot", 4, alpha=1.1).worst_block == pytest.approx(want, abs=1e-15)

    def test_a_leak_above_13_qubits_fails(self):
        # RX(1e-3) on control 3 before a crot train moves 2 sin(2.5e-4) of each
        # pattern's columns; on the ancilla after a Toffoli train it leaks sin(5e-4)
        circ = build_crot_circuit(crot_angles(20, PI / 3))
        verdict = verify_circuit(Circuit(20, (Gate.rx(3, 1e-3),) + circ.gates), "crot", 20, alpha=PI / 3)
        assert not verdict.passed and verdict.worst_block == pytest.approx(2 * np.sin(2.5e-4), rel=1e-9)
        circ = build_toffoli_circuit(30)
        leaky = Circuit(31, circ.gates + (Gate.rx(30, 1e-3),), 0, circ.ancilla_qubits)
        verdict = verify_circuit(leaky, "toffoli", 30)
        assert not verdict.passed and verdict.leakage == pytest.approx(np.sin(5e-4), rel=1e-9)

    def test_a_circuit_past_1023_qubits_is_verified(self):
        # 2.0**1100 overflows a float; each weight's share of the patterns does not
        assert verify_circuit(Circuit(1100, ()), "crot", 1100, alpha=0.0).passed
        verdict = verify_circuit(Circuit(1100, (Gate.rx(3, 1e-3),)), "crot", 1100, alpha=0.0)
        assert not verdict.passed and verdict.worst_block == pytest.approx(2 * np.sin(2.5e-4), rel=1e-9)

    def test_a_64_qubit_train_passes_its_own_angle_only(self):
        circ = build_crot_circuit(crot_angles(64, 1.1))
        verdict = verify_circuit(circ, "crot", 64, alpha=1.1)
        assert verdict.passed and verdict.worst_block < 1e-11
        verdict = verify_circuit(circ, "crot", 64, alpha=1.15)
        assert not verdict.passed and verdict.worst_block == pytest.approx(2 * np.sin(0.0125), rel=1e-9)

    def test_builds_no_dense_matrix(self):
        circ = build_crot_circuit(crot_angles(12, PI / 3))
        tracemalloc.start()
        try:
            verdict = verify_circuit(circ, "crot", 12, alpha=PI / 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense 2^12 x 2^12 unitary is 256 MiB
        assert verdict.passed and peak < 16 * 2**20

    @pytest.mark.parametrize(
        "kind, n, kwargs, match",
        [
            ("crot", 3, {"alpha": 0.3, "tolerance": float("nan")}, "tolerance"),
            ("crot", 3, {"alpha": 0.3, "tolerance": -1.0}, "tolerance"),
            ("crot", 3, {"alpha": 0.3, "tolerance": float("inf")}, "tolerance"),
            ("crot", 3, {"alpha": 0.3, "tolerance": "1e-6"}, "tolerance must be a real number"),
            ("crot", 4, {"alpha": 0.3}, "circuit has 3 qubits, target expects 4"),
            ("toffoli", 3, {}, "toffoli target expects n\\+1 qubits and one ancilla"),
            ("crot", 3, {}, "alpha must be a real number"),
            ("weighted", 3, {}, "alphas needs one angle per control weight"),
            ("cnot", 3, {}, "unknown target kind"),
            ("crot", 3, {"alpha": True}, "alpha must be a real number"),
            ("crot", 3, {"alpha": "x"}, "alpha must be a real number"),
            ("crot", 3.0, {"alpha": 0.3}, "n must be an integer"),
            ("toffoli", 1, {}, "need n >= 2"),
            ("weighted", 3, {"alphas": [1j, 1, 1]}, "alphas\\[0\\] must be a real number"),
            ("weighted", 3, {"alphas": 5}, "alphas needs one angle per control weight"),
            ("weighted", 3, {"alphas": [1, 2]}, "alphas needs one angle per control weight"),
            # the circuit's size is checked before a 2x2 per control weight (64 TB here) is built
            ("crot", 10**12, {"alpha": 0.3}, "circuit has 3 qubits"),
            ("toffoli", 10**12, {}, "toffoli target expects n\\+1 qubits"),
        ],
        ids=["nan_tolerance", "negative_tolerance", "infinite_tolerance", "string_tolerance", "qubit_count",
             "toffoli_count", "no_alpha", "no_alphas", "unknown_kind", "bool_alpha", "string_alpha", "float_n",
             "toffoli_n1", "complex_alphas", "scalar_alphas", "short_alphas", "huge_n", "huge_toffoli_n"],
    )
    def test_bad_requests_raise_before_simulating(self, monkeypatch, kind, n, kwargs, match):
        def refuse(circuit, first=()):
            raise AssertionError("simulated a request it should have refused")

        monkeypatch.setattr(simulate, "_block_store", refuse)
        with pytest.raises(ValueError, match=match):
            verify_circuit(build_crot_circuit(crot_angles(3, 0.3)), kind, n, **kwargs)


@lru_cache(maxsize=None)
def _train(kind, n):
    """A compiled train and its request: crot at alpha = 1.1, weighted on an even spread of angles."""
    if kind == "toffoli":
        return build_toffoli_circuit(n), {}
    if kind == "crot":
        return build_crot_circuit(crot_angles(n, 1.1), target=n // 2), {"alpha": 1.1}
    alphas = tuple(np.linspace(-3.0, 2.9, n))
    return build_crot_circuit(weighted_angles(n, alphas)), {"alphas": alphas}


ORACLE_CASES = [("crot", n) for n in [*range(2, 17), 64, 256]]
ORACLE_CASES += [("toffoli", n) for n in [*range(2, 13), 255]]
ORACLE_CASES += [("weighted", n) for n in [*range(2, 9), 32, 128]]


@pytest.mark.parametrize("wrong", [False, True], ids=["compiled", "wrong_angle"])
@pytest.mark.parametrize("kind, n", ORACLE_CASES, ids=[f"{kind}{n}" for kind, n in ORACLE_CASES])
def test_verdict_matches_the_weight_walk_oracle(kind, n, wrong):
    # the oracle walks the gate list as one 2x2 per control weight and imports nothing
    # from simulate; a wrong angle is alpha + 0.05, the last alpha + 0.05, or for a
    # Toffoli a train RZ moved by 1e-3, which also leaves the ancilla flipped
    circ, args = _train(kind, n)
    if wrong and kind == "toffoli":
        j = next(j for j, g in enumerate(circ.gates) if j > len(circ.gates) // 2 and g.kind == "RZ")
        gates = list(circ.gates)
        gates[j] = replace(gates[j], angle=gates[j].angle + 1e-3)
        circ = replace(circ, gates=tuple(gates))
    elif wrong and kind == "crot":
        args = {"alpha": args["alpha"] + 0.05}
    elif wrong:
        args = {"alphas": (*args["alphas"][:-1], args["alphas"][-1] + 0.05)}
    verdict = verify_circuit(circ, kind, n, **args)
    worst, leakage, passed = oracle_verdict(circ, kind, n, **args)
    assert verdict.passed == passed == (not wrong)
    assert verdict.leakage == pytest.approx(leakage, abs=1e-12)
    assert verdict.worst_block == pytest.approx(worst, rel=1e-9, abs=1e-10)


class TestBlockStructure:
    def test_compiled_crot_blocks(self):
        plan = crot_angles(5, 0.3)
        u = circuit_unitary(build_crot_circuit(plan))
        assert off_block_max(u) < 1e-10
        for ctrl, block in enumerate(target_blocks(u)):
            if bin(ctrl).count("1") != 4:
                assert abs(block[0, 1]) < 1e-9 and abs(block[1, 0]) < 1e-9
                assert abs(block[0, 0] - block[1, 1]) < 1e-9
            else:
                ph = block[0, 0] / rz(0.3)[0, 0]
                np.testing.assert_allclose(block, ph * rz(0.3), atol=1e-9)
