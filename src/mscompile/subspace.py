"""Effective single-qubit picture of the global pulse acting on N qubits.

With star-shaped Ising couplings (every control coupled to the target with
unit weight, controls uncoupled among themselves) the dynamics restricted to
a fixed control bitstring is a target-qubit X rotation whose angle depends
only on the Hamming weight q of the controls:

    theta_q = (N - 1 - 2q) * tau + h

where tau is the pulse area and h an extra per-pulse X rotation on the
target.  Uniform all-to-all couplings add control-dependent phases on top;
those reset exactly when tau * L is a multiple of 2*pi.
"""

from __future__ import annotations

import math
import operator

import numpy as np

PHASE_RESET_TOL = 1e-12
_NOT_REAL = (bool, np.bool_, np.complexfloating)  # math.isfinite takes these, but no angle is one


def _index(value, what: str) -> int:
    """A Python or numpy integer as an int; a bool, float or string raises ValueError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str, finite: bool = False) -> float:
    """A real number as a float; a bool, string or complex raises ValueError, as does NaN or inf if finite."""
    try:
        real = not isinstance(value, _NOT_REAL) and (math.isfinite(value) or not finite)
    except (TypeError, OverflowError):  # a string or complex; an int past the float range
        real = False
    if not real:
        raise ValueError(f"{what} must be a {'finite ' if finite else ''}real number, got {value!r}")
    return float(value)


def _angles(alphas, n: int) -> list[float]:
    """Exactly n real numbers (``_real``, NaN allowed) as floats; anything else raises ValueError."""
    listed = list(alphas) if np.iterable(alphas) else []
    if len(listed) != n:
        raise ValueError(f"alphas needs one angle per control weight 0..{n - 1}, got {alphas!r}")
    return [_real(a, f"alphas[{q}]") for q, a in enumerate(listed)]


def _check_size(n, least: int = 2) -> int:
    """A qubit count as an int: an integer of at least least (one control by default), else ValueError."""
    n = _index(n, "n")
    if n < least:
        raise ValueError(f"need n >= {least} qubits, got n={n}")
    return n


def default_params(n: int) -> tuple[float, float]:
    """Pulse parameters (tau, h) = (pi/N, -pi/N) used for controlled rotations.

    They spread the angles theta_q uniformly over the circle and place
    theta_{N-1} at pi.
    """
    n = _check_size(n)
    return np.pi / n, -np.pi / n


def compute_thetas(n: int, tau: float, h: float) -> list[float]:
    """Effective rotation angles theta_q for q = 0..N-1."""
    n = _check_size(n)
    return [(n - 1 - 2 * q) * tau + h for q in range(n)]


def phase_reset_ok(length: int, tau: float) -> bool:
    """True iff tau * L is an integer multiple of 2*pi (to PHASE_RESET_TOL).

    Guarantees that the pairwise control-control phases accumulated over L
    pulses cancel; with tau = pi/N this holds iff L is a multiple of 2N.
    """
    if length < 0:
        raise ValueError("pulse count must be non-negative")
    turns = tau * length / (2.0 * np.pi)
    return bool(abs(turns - round(turns)) * 2.0 * np.pi <= PHASE_RESET_TOL)
