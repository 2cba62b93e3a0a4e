"""Compile multi-controlled rotations into trains of identical global
Molmer-Sorensen pulses interleaved with single-qubit rotations on one
target qubit, and verify the result by exact statevector simulation."""

from .series import EVEN, ODD, ParityError, SynthesisError, TrigSeries
from .subspace import compute_thetas, default_params, phase_reset_ok
from .fitting import (
    FittingError,
    fit_A,
    fit_weight_dependent,
    weighted_params,
)
from .synthesis import (
    CompilationPlan,
    CompletionError,
    ExtractionError,
    crot_angles,
    evaluate_plan,
    extract_angles,
    pad_for_phase_reset,
    weighted_angles,
)
from .circuit import (
    Circuit,
    CircuitFormatError,
    Gate,
    PhaseResetError,
    QubitIndexError,
    UnknownGateError,
    build_crot_circuit,
    build_toffoli_circuit,
    deserialize,
    plan_merged_angles,
    serialize,
    to_text,
)
from .simulate import verify_circuit

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "ParityError",
    "SynthesisError",
    "TrigSeries",
    "compute_thetas",
    "default_params",
    "phase_reset_ok",
    "FittingError",
    "fit_A",
    "fit_weight_dependent",
    "weighted_params",
    "CompilationPlan",
    "CompletionError",
    "ExtractionError",
    "crot_angles",
    "evaluate_plan",
    "extract_angles",
    "pad_for_phase_reset",
    "weighted_angles",
    "Circuit",
    "CircuitFormatError",
    "Gate",
    "PhaseResetError",
    "QubitIndexError",
    "UnknownGateError",
    "build_crot_circuit",
    "build_toffoli_circuit",
    "deserialize",
    "plan_merged_angles",
    "serialize",
    "to_text",
    "verify_circuit",
]
