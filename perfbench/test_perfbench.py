"""Tests of the benchmark's own parts: the independent checker, outcome
classification, seeded requests and tracing.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from mscompile import circuit, simulate  # noqa: E402
from mscompile.synthesis import CompilationPlan, CompletionError, crot_angles, weighted_angles  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import REQUEST, Tracer, layer_metrics, self_times  # noqa: E402


def _random_plan(rng, n, pulses, tau, h):
    return CompilationPlan(n, tau, h, tuple(rng.uniform(-np.pi, np.pi, pulses + 1)))


def _dense_distance(circ, request):
    u = simulate.circuit_unitary(circ)
    n = request["n"]
    if request["kind"] == "toffoli":
        block, _ = simulate.project_ancilla(u, n, 0)
        return simulate.phase_distance(block, simulate.ideal_toffoli(n))
    if request["kind"] == "crot":
        return simulate.phase_distance(u, simulate.ideal_crot(n, request["alpha"]))
    return simulate.phase_distance(u, simulate.ideal_weighted(n, request["alphas"]))


def _perturbed(payload: bytes, index: int, delta: float) -> bytes:
    doc = json.loads(payload)
    rz = [g for g in doc["gates"] if g["type"] == "RZ"]
    rz[index]["angle"] += delta
    return json.dumps(doc).encode()


@pytest.mark.parametrize("n", range(2, 9))
def test_checker_matches_dense_crot(n):
    rng = np.random.default_rng(n)
    alpha = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    request = {"kind": "crot", "n": n, "alpha": alpha}
    compiled = circuit.build_crot_circuit(crot_angles(n, alpha))
    # a train with random angles is far from the target, so the two distances
    # are compared away from zero too
    tau, h = np.pi / n, -np.pi / n
    scrambled = circuit.build_crot_circuit(_random_plan(rng, n, 2 * n, tau, h))
    for circ in (compiled, scrambled):
        distance, pulses = checker.check(circuit.serialize(circ), request)
        assert distance == pytest.approx(_dense_distance(circ, request), abs=1e-12)
        assert pulses == circ.ms_count()
    assert checker.check(circuit.serialize(compiled), request)[0] < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_checker_matches_dense_weighted(n):
    rng = np.random.default_rng(100 + n)
    alphas = (np.pi - rng.uniform(0, 2 * np.pi, n)).tolist()
    request = {"kind": "weighted", "n": n, "alphas": alphas}
    tau, h = np.pi / n, -np.pi / n - np.pi / (2 * n)
    circuits = [circuit.build_crot_circuit(_random_plan(rng, n, 4 * n, tau, h))]
    if n <= 5:  # larger random profiles hit the completion parity failure
        circuits.append(circuit.build_crot_circuit(weighted_angles(n, alphas)))
    for circ in circuits:
        distance, _ = checker.check(circuit.serialize(circ), request)
        assert distance == pytest.approx(_dense_distance(circ, request), abs=1e-12)
    if n <= 5:
        assert distance < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_checker_matches_dense_toffoli(n):
    request = {"kind": "toffoli", "n": n}
    circ = circuit.build_toffoli_circuit(n)
    payload = circuit.serialize(circ)
    distance, pulses = checker.check(payload, request)
    assert distance < 1e-12
    assert distance == pytest.approx(_dense_distance(circ, request), abs=1e-12)
    assert pulses == 2 * (n + 1)
    broken = circuit.deserialize(_perturbed(payload, 3, 0.05))
    distance, _ = checker.check(circuit.serialize(broken), request)
    assert distance == pytest.approx(_dense_distance(broken, request), abs=1e-12)


@pytest.mark.parametrize(
    "request_",
    [
        {"kind": "crot", "n": 5, "alpha": 1.3},
        {"kind": "weighted", "n": 4, "alphas": [0.4, -1.1, 2.0, 0.7]},
        {"kind": "toffoli", "n": 4},
    ],
)
def test_checker_flags_one_perturbed_angle(request_):
    payload, _ = workloads.run_request(request_, dense_verify=False)
    assert checker.check(payload, request_)[0] < 1e-12
    assert checker.check(_perturbed(payload, 2, 1e-3), request_)[0] > 1e-9


def test_checker_rejects_gate_on_control():
    payload, _ = workloads.run_request({"kind": "crot", "n": 3, "alpha": 0.3}, dense_verify=False)
    doc = json.loads(payload)
    doc["gates"].insert(1, {"type": "RZ", "qubit": 1, "angle": 0.1})
    with pytest.raises(checker.UnsupportedCircuit):
        checker.check(json.dumps(doc).encode(), {"kind": "crot", "n": 3, "alpha": 0.3})


def test_classification():
    assert workloads.classify_error(CompletionError("x")) == "synthesis_error"
    assert workloads.classify_error(ValueError("x")) == "untyped_error"
    assert workloads.classify_error(KeyError("x")) == "untyped_error"
    # Toffoli_14 compiles crot(15, 2 pi), which raises ParityError from the
    # completion step: an untyped error
    with pytest.raises(Exception) as info:
        workloads.run_request({"kind": "toffoli", "n": 14}, dense_verify=False)
    assert type(info.value).__name__ == "ParityError"
    assert workloads.classify_error(info.value) == "untyped_error"


def test_judge_counts_a_wrong_circuit():
    request = {"kind": "crot", "n": 4, "alpha": 0.7}
    payload, distance = workloads.run_request(request, dense_verify=True)
    assert workloads.judge(request, payload, distance, 1.0).outcome == "verified"
    wrong = _perturbed(payload, 1, 0.01)
    # the program's own verify passed it, so the disagreement is flagged
    judged = workloads.judge(request, wrong, distance, 1.0)
    assert (judged.outcome, judged.disagrees) == ("check_failed", True)
    # the program's verify caught it too: counted, not a contradiction
    judged = workloads.judge(request, wrong, 0.5, 1.0)
    assert (judged.outcome, judged.disagrees) == ("check_failed", False)


def test_rounds_are_seeded():
    for workload in workloads.WORKLOADS.values():

        def first(seed, count=3):
            gen = workloads.rounds(workload, seed)
            return [r for _ in range(count) for r in next(gen)]

        assert workloads.request_digest(first(5)) == workloads.request_digest(first(5))
        assert workloads.request_digest(first(5)) != workloads.request_digest(first(6))
        assert sorted(map(repr, [(r["kind"], r["n"]) for r in first(5, 1)])) == sorted(
            map(repr, [c[:2] for c in workload.classes])
        )


def test_random_angles_stay_clear_of_the_identity():
    rng = np.random.default_rng(0)
    alphas = [workloads._request(rng, ("crot", 12, workloads.RANDOM))["alpha"] for _ in range(20_000)]
    assert not any(workloads._near_identity(a) for a in alphas)
    assert max(alphas) > 6.0 and min(alphas) < -6.0
    # an angle that completion fails on is inside the redrawn band
    assert workloads._near_identity(0.0019827690549103494)
    assert workloads._near_identity(-2 * math.pi + 0.0005)
    # fixed angles are kept as they are
    assert workloads._request(rng, ("crot", 11, 2 * math.pi))["alpha"] == 2 * math.pi


def test_tracing_keeps_outputs_and_restores_attributes():
    requests = [
        {"kind": "crot", "n": 4, "alpha": math.pi},
        {"kind": "weighted", "n": 3, "alphas": [0.4, 1.1, 2.0]},
        {"kind": "toffoli", "n": 4},
    ]
    plain = [workloads.run_request(r, dense_verify=True) for r in requests]
    originals = [getattr(m, a) for m, a, _, _ in workloads.TRACE_POINTS]
    tracer = Tracer()
    with tracer.patched(workloads.TRACE_POINTS):
        traced = []
        for i, r in enumerate(requests):
            tracer.request_id = i
            with tracer.span(REQUEST):
                traced.append(workloads.run_request(r, dense_verify=True))
    assert traced == plain
    assert [getattr(m, a) for m, a, _, _ in workloads.TRACE_POINTS] == originals

    names = {s["name"] for s in tracer.spans}
    assert names == {REQUEST, *workloads.LAYERS}
    toffoli_compile = [
        s for s in tracer.spans if s["request"] == 2 and s["name"] == "synthesis.angles"
    ]
    assert tracer.spans[toffoli_compile[0]["parent"]]["name"] == "circuit.emit"
    metrics = layer_metrics(tracer.spans, workloads.LAYERS, {})
    assert metrics["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    assert metrics["simulate.unitary.calls"] == 3


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "d", "start": 6.0, "end": 7.0, "parent": 0},
    ]
    assert self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_tail_is_the_value_with_ten_samples_beyond():
    import worker

    p50, tail, info = worker._p50_and_tail(range(100, 0, -1))
    assert (p50, tail) == (50.5, 90)
    assert (info["samples"], info["beyond"]) == (100, 10)


def test_benchmark_json_matches_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    layer_names = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert set(workloads.LAYERS) <= layer_names


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weighted-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_short_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weighted-mix", "--seed", "3", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(workloads.END_TO_END)
