"""Acceptance suite: one test per criterion, run at the stated tolerance.

Each test prints a single summary line with the measured figure of merit;
run ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import numpy as np
import pytest
from _helpers import dense_ms, off_block_max, plan_from_merged, target_blocks

from mscompile import (
    Circuit,
    Gate,
    build_crot_circuit,
    build_toffoli_circuit,
    circuit_unitary,
    crot_angles,
    ideal_crot,
    ideal_toffoli,
    phase_distance,
    project_ancilla,
    weighted_angles,
)
from mscompile.su2 import rx
from mscompile.synthesis import _crot_quadruple, _weighted_quadruple

PI = np.pi
SWEEP_ALPHAS = (0.3, PI / 2, PI, 2 * PI)

TABLE_1 = {
    3: [-1.855, -2.118, -0.525, -2.118, -1.855, -PI, 0.0],
    4: [-2.366, -1.564, 1.577, 1.55, 1.577, -1.564, -2.366, -PI, 0.0],
    5: [-2.61, -1.098, 1.417, -1.116, -2.041, -1.116, 1.417, -1.098, -2.61, -PI, 0.0],
    6: [-2.745, -0.79, 1.146, -1.155, 0.81, 2.312, 0.81, -1.155, 1.146, -0.79, -2.745, -PI, 0.0],
}


@pytest.fixture(scope="module")
def crot_sweep():
    """Compiled circuits and unitaries for N = 2..10, four angles each."""
    start = time.perf_counter()
    out = {}
    for n in range(2, 11):
        for alpha in SWEEP_ALPHAS:
            plan = crot_angles(n, alpha)
            circ = build_crot_circuit(plan)
            out[(n, alpha)] = (plan, circ, circuit_unitary(circ))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_1_table_replay():
    start = time.perf_counter()
    worst = 0.0
    for n, row in TABLE_1.items():
        circ = build_crot_circuit(plan_from_merged(n, row))
        worst = max(worst, phase_distance(circuit_unitary(circ), ideal_crot(n, -PI)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1 table replay: worst distance {worst:.3e} in {elapsed:.2f}s -> "
          f"{'PASS' if worst <= 1e-2 else 'FAIL'}")
    assert worst <= 1e-2
    assert elapsed < 1.0


def test_criterion_2_end_to_end_sweep(crot_sweep):
    sweep, elapsed = crot_sweep
    worst = 0.0
    for (n, alpha), (_, circ, u) in sweep.items():
        assert circ.ms_count() == 2 * n
        worst = max(worst, phase_distance(u, ideal_crot(n, alpha)))
    print(f"criterion 2 synthesis sweep: worst distance {worst:.3e} in {elapsed:.1f}s -> "
          f"{'PASS' if worst <= 1e-6 and elapsed < 30 else 'FAIL'}")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_toffoli():
    worst_dist = worst_leak = 0.0
    for n in range(2, 6):
        circ = build_toffoli_circuit(n)
        assert circ.ms_count() == 2 * (n + 1)
        block, leakage = project_ancilla(circuit_unitary(circ), n, 0)
        worst_dist = max(worst_dist, phase_distance(block, ideal_toffoli(n)))
        worst_leak = max(worst_leak, leakage)
    ok = worst_dist <= 1e-6 and worst_leak <= 1e-10
    print(f"criterion 3 toffoli: worst distance {worst_dist:.3e}, leakage {worst_leak:.3e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert worst_dist <= 1e-6
    assert worst_leak <= 1e-10


def test_criterion_4_normalization_and_parity():
    grid = np.linspace(0.0, 2.0 * PI, 1024, endpoint=False)
    worst_norm = worst_parity = 0.0
    quadruples = [_crot_quadruple(n, alpha) for n in range(2, 11) for alpha in SWEEP_ALPHAS]
    quadruples.append(_weighted_quadruple(3, (0.4, 1.1, 2.0)))
    for a, b, c, d in quadruples:
        total = a(grid) ** 2 + b(grid) ** 2 + c(grid) ** 2 + d(grid) ** 2
        worst_norm = max(worst_norm, float(np.max(np.abs(total - 1.0))))
        for s, sign in ((a, 1), (d, 1), (b, -1), (c, -1)):
            worst_parity = max(worst_parity, float(np.max(np.abs(s(-grid) - sign * s(grid)))))
    ok = worst_norm <= 1e-10 and worst_parity <= 1e-12
    print(f"criterion 4 normalization {worst_norm:.3e}, parity {worst_parity:.3e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert worst_norm <= 1e-10
    assert worst_parity <= 1e-12


def test_criterion_5_ms_oracle():
    worst = 0.0
    for n in range(1, 5):
        for tau in (0.31, PI / n, 1.7):
            fast = circuit_unitary(Circuit(n, (Gate.ms(tau),)))
            worst = max(worst, float(np.max(np.abs(fast - dense_ms(n, tau)))))
    print(f"criterion 5 pulse oracle: worst entry error {worst:.3e} -> "
          f"{'PASS' if worst <= 1e-12 else 'FAIL'}")
    assert worst <= 1e-12


def test_criterion_6_first_order_robustness():
    plan = crot_angles(4, PI)
    base = build_crot_circuit(plan)
    ideal = ideal_crot(4, PI)

    def error_at(eps):
        gates = tuple(
            Gate.ms(g.angle * (1 + eps)) if g.kind == "MS" else g for g in base.gates
        )
        return phase_distance(circuit_unitary(Circuit(4, gates)), ideal)

    e_small, e_large = error_at(1e-3), error_at(1e-2)
    ok = e_small <= 0.02 * e_large
    print(f"criterion 6 robustness: e(1e-3) = {e_small:.3e}, e(1e-2) = {e_large:.3e}, "
          f"ratio {e_small / e_large:.4f} -> {'PASS' if ok else 'FAIL'}")
    assert e_small <= 0.02 * e_large


def test_criterion_7_weight_dependent():
    alphas = (0.4, 1.1, 2.0)
    plan = weighted_angles(3, alphas)
    circ = build_crot_circuit(plan)
    assert circ.ms_count() <= 12
    u = circuit_unitary(circ)
    # fix the one global phase from the pulse self-terms, then compare blocks
    phase = np.trace(rx(alphas[2]).conj().T @ u[6:, 6:]) / 2
    phase /= abs(phase)
    worst = 0.0
    for ctrl, block in enumerate(target_blocks(u)):
        q = bin(ctrl).count("1")
        worst = max(worst, float(np.max(np.abs(block / phase - rx(alphas[q])))))
    ok = worst <= 1e-6
    print(f"criterion 7 weight-dependent: {circ.ms_count()} pulses, worst block error {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-6


def test_criterion_8_block_structure(crot_sweep):
    sweep, _ = crot_sweep
    worst_off = worst_idle = 0.0
    for (n, _alpha), (_, _, u) in sweep.items():
        worst_off = max(worst_off, off_block_max(u))
        for ctrl, block in enumerate(target_blocks(u)):
            if bin(ctrl).count("1") != n - 1:
                worst_idle = max(
                    worst_idle, abs(block[0, 1]), abs(block[1, 0]), abs(block[0, 0] - block[1, 1])
                )
    u_weighted = circuit_unitary(build_crot_circuit(weighted_angles(3, (0.4, 1.1, 2.0))))
    worst_off = max(worst_off, off_block_max(u_weighted))
    ok = worst_off <= 1e-10 and worst_idle <= 1e-9
    print(f"criterion 8 block structure: off-block {worst_off:.3e}, idle blocks {worst_idle:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert worst_off <= 1e-10
    assert worst_idle <= 1e-9
