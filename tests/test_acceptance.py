"""Acceptance suite: one test per criterion, run at the stated tolerance.

Each test prints a single summary line with the measured figure of merit;
run ``pytest tests/test_acceptance.py -v -s`` to see them.  A compiled
circuit is judged by ``verify_circuit``, whose verdict the weight-walk
oracle must read alike (``_helpers.checked_verdict``).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from _helpers import checked_verdict, dense_ms, plan_from_merged

from mscompile import (
    Circuit,
    Gate,
    build_crot_circuit,
    build_toffoli_circuit,
    crot_angles,
    verify_circuit,
    weighted_angles,
)
from mscompile.simulate import _block_store
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
    """Compiled circuits and their verdicts for N = 2..10, four angles each."""
    start = time.perf_counter()
    out = {}
    for n in range(2, 11):
        for alpha in SWEEP_ALPHAS:
            circ = build_crot_circuit(crot_angles(n, alpha))
            out[(n, alpha)] = (circ, checked_verdict(circ, "crot", n, alpha=alpha))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_1_table_replay():
    start = time.perf_counter()
    distances = [checked_verdict(build_crot_circuit(plan_from_merged(n, row)), "crot", n, alpha=-PI).phase_distance
                 for n, row in TABLE_1.items()]
    worst = max(distances)
    elapsed = time.perf_counter() - start
    print(f"criterion 1 table replay: distances {min(distances):.3e}..{worst:.3e} in {elapsed:.2f}s -> "
          f"{'PASS' if worst <= 1e-2 else 'FAIL'}")
    assert worst <= 1e-2
    assert elapsed < 1.0


def test_criterion_2_end_to_end_sweep(crot_sweep):
    sweep, elapsed = crot_sweep
    for (n, _alpha), (circ, _) in sweep.items():
        assert circ.ms_count() == 2 * n
    worst = max(verdict.worst_block for _, verdict in sweep.values())
    distance = max(verdict.phase_distance for _, verdict in sweep.values())
    ok = worst <= 1e-6 and distance <= 1e-6 and elapsed < 30
    print(f"criterion 2 synthesis sweep: worst block {worst:.3e}, distance {distance:.3e} in {elapsed:.1f}s -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-6
    assert distance <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_toffoli():
    # Toffoli x 1: both ancilla states are judged, and amplitude that flips the ancilla is a miss
    worst = 0.0
    for n in range(2, 6):
        circ = build_toffoli_circuit(n)
        assert circ.ms_count() == 2 * (n + 1)
        worst = max(worst, checked_verdict(circ, "toffoli", n).worst_block)
    # RZ(0.1) left on the ancilla makes the n = 4 train Toffoli x RZ(0.1): each column misses by 2 sin(0.025)
    train = build_toffoli_circuit(4)
    rotated = verify_circuit(replace(train, gates=train.gates + (Gate.rz(4, 0.1),)), "toffoli", 4)
    ok = worst <= 1e-10 and not rotated.passed
    print(f"criterion 3 toffoli: worst block {worst:.3e}, RZ(0.1) on the ancilla {rotated.worst_block:.3e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-10
    assert not rotated.passed and rotated.worst_block == pytest.approx(2 * np.sin(0.025), rel=1e-9)


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
            # a lone pulse leaves every qubit active: the block store holds one block, the whole unitary
            store, active = _block_store(Circuit(n, (Gate.ms(tau),)))
            assert active == list(range(n)) and store.shape == (2**n, 1, 2**n)
            worst = max(worst, float(np.max(np.abs(store[:, 0] - dense_ms(n, tau)))))
    print(f"criterion 5 pulse oracle: worst entry error {worst:.3e} -> "
          f"{'PASS' if worst <= 1e-12 else 'FAIL'}")
    assert worst <= 1e-12


def test_criterion_6_first_order_robustness():
    base = build_crot_circuit(crot_angles(4, PI))

    def error_at(eps):
        gates = tuple(
            Gate.ms(g.angle * (1 + eps)) if g.kind == "MS" else g for g in base.gates
        )
        return checked_verdict(Circuit(4, gates), "crot", 4, alpha=PI).phase_distance

    e_small, e_large = error_at(1e-3), error_at(1e-2)
    ok = e_small <= 0.02 * e_large
    print(f"criterion 6 robustness: e(1e-3) = {e_small:.3e}, e(1e-2) = {e_large:.3e}, "
          f"ratio {e_small / e_large:.4f} -> {'PASS' if ok else 'FAIL'}")
    assert e_small <= 0.02 * e_large


def test_criterion_7_weight_dependent():
    alphas = (0.4, 1.1, 2.0)
    circ = build_crot_circuit(weighted_angles(3, alphas))
    assert circ.ms_count() <= 12
    # every control pattern's block against Rx(alphas[weight]), up to the one global phase
    worst = checked_verdict(circ, "weighted", 3, alphas=alphas).worst_block
    ok = worst <= 1e-6
    print(f"criterion 7 weight-dependent: {circ.ms_count()} pulses, worst block error {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-6


def test_criterion_8_block_structure(crot_sweep):
    # worst_block bounds both the amplitude leaked between control patterns and
    # each idle pattern's miss of the identity, up to the one global phase
    sweep, _ = crot_sweep
    worst = max(verdict.worst_block for _, verdict in sweep.values())
    alphas = (0.4, 1.1, 2.0)
    weighted = checked_verdict(build_crot_circuit(weighted_angles(3, alphas)), "weighted", 3, alphas=alphas)
    worst = max(worst, weighted.worst_block)
    ok = worst <= 1e-10
    print(f"criterion 8 block structure: worst block {worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-10
