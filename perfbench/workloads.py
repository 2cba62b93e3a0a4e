"""Workloads of the compile-and-verify benchmark.

A workload is a cycle of request classes. The seed draws the angles and the
order within each round; the program sees only ``(kind, n, alpha | alphas)``.
Runs end on whole rounds, so every run holds each class equally often and the
percentiles land in the same request class from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from mscompile import circuit, simulate, synthesis
from mscompile.fitting import FittingError
from mscompile.synthesis import CompletionError, ExtractionError

import checker

VERIFY_TOLERANCE = 1e-6  # default of `mscompile verify --tolerance`
CHECK_TOLERANCE = 1e-9
SYNTHESIS_ERRORS = (FittingError, CompletionError, ExtractionError)
OUTCOMES = ("verified", "synthesis_error", "untyped_error", "check_failed")
ACCEPTANCE_ANGLES = (0.3, math.pi / 2, math.pi, 2 * math.pi)
RANDOM = "random"
# A random crot angle this close to a multiple of 2 pi is drawn again. Near the
# identity, completion fails for some angles: at N = 8..12 a scan found
# CompletionError for |alpha - 2 pi k| up to 0.0023 (e.g. crot(12, 0.00198)),
# and none beyond. The workloads hold only requests the program serves.
NEAR_IDENTITY = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    latency_limit_ms: float  # the latency a failed request is scored at
    dense_verify: bool
    classes: tuple[tuple, ...]  # (kind, n) or (kind, n, alpha | RANDOM), one per request of a round
    warmup: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-verify",
            latency_limit_ms=20_000.0,
            dense_verify=True,
            # crot N=9 and N=10 twice, so the median and the tail fall inside
            # one request class rather than on the gap between two
            classes=(
                ("crot", 8, RANDOM),
                ("crot", 9, RANDOM),
                ("crot", 9, RANDOM),
                ("crot", 10, RANDOM),
                ("crot", 10, RANDOM),
                ("toffoli", 7),
                ("toffoli", 8),
                ("toffoli", 9),
            ),
            warmup={"kind": "crot", "n": 8, "alpha": math.pi / 2},
        ),
        Workload(
            name="compile-large",
            latency_limit_ms=5_000.0,
            dense_verify=False,
            # half the crot requests at the acceptance angles, half at seeded
            # random angles
            classes=tuple(
                ("crot", n, alpha) for n in (11, 12) for alpha in ACCEPTANCE_ANGLES + (RANDOM,) * 4
            )
            + tuple(("toffoli", n) for n in range(10, 14)),
            warmup={"kind": "crot", "n": 11, "alpha": math.pi / 2},
        ),
        Workload(
            name="weighted-mix",
            latency_limit_ms=2_000.0,
            dense_verify=True,
            classes=(("weighted", 3), ("weighted", 4), ("weighted", 5)),
            warmup={"kind": "weighted", "n": 3, "alphas": [0.4, 1.1, 2.0]},
        ),
    )
}

END_TO_END = (
    "request_p50_probes",
    "request_tail_probes",
    "verified_ratio",
    "pulse_ratio",
    "setup_s",
    "peak_rss_mb",
)

# Which end-to-end metric a change to each layer should move, on which
# workload. Every (metric, workload) pair not listed for a layer is predicted
# not to move when only that layer changes.
PREDICTIONS = {
    "fitting.fit": {},
    "synthesis.angles": {},
    "synthesis.complete": {"compile-large": ["request_tail_probes"]},
    "synthesis.extract": {
        "compile-large": ["request_p50_probes", "request_tail_probes"],
        "weighted-mix": ["request_p50_probes"],
    },
    "synthesis.pad": {},
    "circuit.emit": {},
    "circuit.io": {},
    "simulate.unitary": {"dense-verify": ["request_p50_probes", "request_tail_probes", "peak_rss_mb"]},
    "simulate.ideal": {},
    "simulate.distance": {"dense-verify": ["request_tail_probes"]},
}

LAYERS = tuple(PREDICTIONS)


def predictions(workload: str) -> dict:
    """Per layer, the end-to-end metrics of one workload predicted to move and not to move."""
    out = {}
    for layer, moves in PREDICTIONS.items():
        moved = moves.get(workload, [])
        out[layer] = {"moves": moved, "no_change": [m for m in END_TO_END if m not in moved]}
    return out


def paper_pulses(request: dict) -> int:
    """MS count the paper gives: 2N for crot, 2(n+1) for Toffoli, 4N for weighted."""
    n = request["n"]
    return {"crot": 2 * n, "toffoli": 2 * (n + 1), "weighted": 4 * n}[request["kind"]]


def _near_identity(alpha: float) -> bool:
    return abs(alpha - 2 * math.pi * round(alpha / (2 * math.pi))) < NEAR_IDENTITY


def _request(rng: np.random.Generator, cls: tuple) -> dict:
    kind, n = cls[0], cls[1]
    if kind == "toffoli":
        return {"kind": kind, "n": n}
    if kind == "weighted":
        return {"kind": kind, "n": n, "alphas": (math.pi - rng.uniform(0.0, 2 * math.pi, n)).tolist()}
    alpha = cls[2]
    if alpha == RANDOM:
        alpha = 2 * math.pi - float(rng.uniform(0.0, 4 * math.pi))
        while _near_identity(alpha):
            alpha = 2 * math.pi - float(rng.uniform(0.0, 4 * math.pi))
    return {"kind": kind, "n": n, "alpha": alpha}


def rounds(workload: Workload, seed: int):
    """Endless seeded rounds; each round holds every class once, shuffled."""
    rng = np.random.default_rng(seed)
    for _ in count():
        reqs = [_request(rng, cls) for cls in workload.classes]
        yield [reqs[i] for i in rng.permutation(len(reqs))]


def request_digest(requests: list[dict]) -> str:
    return hashlib.sha256(json.dumps(requests, sort_keys=True).encode()).hexdigest()


def run_request(request: dict, dense_verify: bool) -> tuple[bytes, float | None]:
    """One request as the CLI would serve it: compile, emit, ``compile --out``,
    then ``verify --circuit`` when the workload verifies densely.

    Every program call goes through a module attribute, so tracing can wrap it.
    Returns the serialized circuit and the program's own verify distance.
    """
    kind, n = request["kind"], request["n"]
    if kind == "crot":
        built = circuit.build_crot_circuit(synthesis.crot_angles(n, request["alpha"]))
    elif kind == "weighted":
        built = circuit.build_crot_circuit(synthesis.weighted_angles(n, request["alphas"]))
    else:
        built = circuit.build_toffoli_circuit(n)
    payload = circuit.serialize(built)
    loaded = circuit.deserialize(payload)
    if not dense_verify:
        return payload, None
    u = simulate.circuit_unitary(loaded)
    if kind == "toffoli":
        block, _ = simulate.project_ancilla(u, n, 0)
        return payload, simulate.phase_distance(block, simulate.ideal_toffoli(n))
    if kind == "crot":
        ideal = simulate.ideal_crot(n, request["alpha"], target=loaded.target_qubit)
    else:
        ideal = simulate.ideal_weighted(n, request["alphas"], target=loaded.target_qubit)
    return payload, simulate.phase_distance(u, ideal)


def classify_error(exc: BaseException) -> str:
    return "synthesis_error" if isinstance(exc, SYNTHESIS_ERRORS) else "untyped_error"


@dataclass
class Outcome:
    outcome: str
    latency_ms: float
    pulses: int | None = None  # MS count of a verified circuit
    disagrees: bool = False  # program's verify verdict contradicts the checker
    digest: str | None = None  # hash of the emitted circuit
    error: str | None = None  # exception type of a failed request


def judge(request: dict, payload: bytes, program_distance: float | None, latency_ms: float) -> Outcome:
    """Check one emitted circuit outside the timed region and classify it."""
    digest = hashlib.sha256(payload).hexdigest()
    try:
        distance, pulses = checker.check(payload, request)
    except checker.UnsupportedCircuit:
        distance, pulses = math.inf, None
    checked = distance <= CHECK_TOLERANCE
    # a circuit the program emits without verifying is a claim that it is right
    program_ok = program_distance is None or program_distance <= VERIFY_TOLERANCE
    if checked and program_ok:
        return Outcome("verified", latency_ms, pulses, digest=digest)
    return Outcome("check_failed", latency_ms, disagrees=checked != program_ok, digest=digest)


def _pad_added(args, result):
    return {"added_pulses": result.num_pulses - args[0].num_pulses}


def _serialized_bytes(args, result):
    return {"bytes": len(result)}


def _parsed_bytes(args, result):
    return {"bytes": len(args[0])}


def _unitary_bytes(args, result):
    c = args[0]
    return {"bytes_touched_computed": 16 * 4**c.num_qubits * len(c.gates)}


# (module, attribute, layer, counter) for every program call on a request's
# path. crot_angles is wrapped in both modules that call it, so the compile
# inside build_toffoli_circuit is attributed to synthesis.
TRACE_POINTS = (
    (synthesis, "crot_angles", "synthesis.angles", None),
    (synthesis, "weighted_angles", "synthesis.angles", None),
    (synthesis, "fit_A", "fitting.fit", None),
    (synthesis, "fit_weight_dependent", "fitting.fit", None),
    (synthesis, "complete", "synthesis.complete", None),
    (synthesis, "extract_angles", "synthesis.extract", None),
    (synthesis, "pad_for_phase_reset", "synthesis.pad", _pad_added),
    (circuit, "crot_angles", "synthesis.angles", None),
    (circuit, "build_crot_circuit", "circuit.emit", None),
    (circuit, "build_toffoli_circuit", "circuit.emit", None),
    (circuit, "serialize", "circuit.io", _serialized_bytes),
    (circuit, "deserialize", "circuit.io", _parsed_bytes),
    (simulate, "circuit_unitary", "simulate.unitary", _unitary_bytes),
    (simulate, "ideal_crot", "simulate.ideal", None),
    (simulate, "ideal_toffoli", "simulate.ideal", None),
    (simulate, "ideal_weighted", "simulate.ideal", None),
    (simulate, "phase_distance", "simulate.distance", None),
    (simulate, "project_ancilla", "simulate.distance", None),
)

# span counts summed per layer by the traced run
LAYER_EXTRAS = {
    "synthesis.pad": ["added_pulses"],
    "circuit.io": ["bytes"],
    "simulate.unitary": ["bytes_touched_computed"],
}
