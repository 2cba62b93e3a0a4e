"""Finite cosine/sine series in one angle variable, and their Laurent form.

A ``TrigSeries`` holds real coefficients k = 0..degree for either

    even:  f(theta) = sum_k coeffs[k] * cos(k*theta)
    odd:   f(theta) = sum_k coeffs[k] * sin(k*theta)

Both are 2*pi periodic by construction.  The Laurent form substitutes
z = exp(i*theta), so cos(k*theta) <-> (z^k + z^-k)/2 and
sin(k*theta) <-> (z^k - z^-k)/(2i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EVEN = "even"
ODD = "odd"


class ParityError(ValueError):
    """Coefficients are inconsistent with the requested parity."""


class SynthesisError(RuntimeError):
    """A synthesis stage (fit, completion, extraction) missed its tolerance.

    It lives here because every stage imports this module, while
    ``synthesis`` itself imports ``fitting``.
    """


@dataclass(frozen=True)
class TrigSeries:
    """A finite cosine (even) or sine (odd) series with real coefficients."""

    parity: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ParityError(f"parity must be {EVEN!r} or {ODD!r}, got {self.parity!r}")
        coeffs = tuple([float(c) for c in self.coeffs])  # exact size, as in synthesis.CompilationPlan
        if not coeffs:
            raise ValueError("coeffs must have at least one entry (k = 0)")
        if self.parity == ODD and coeffs[0] != 0.0:
            raise ParityError("odd series must have coeffs[0] == 0 (sin(0) carries no weight)")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, parity: str, degree: int = 0) -> TrigSeries:
        return cls(parity, (0.0,) * (degree + 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, theta):
        """Value of the series at theta (scalar or ndarray)."""
        theta = np.asarray(theta, dtype=float)
        k = np.arange(len(self.coeffs))
        kt = np.multiply.outer(theta, k)
        basis = np.cos(kt) if self.parity == EVEN else np.sin(kt)
        out = basis @ np.asarray(self.coeffs)
        return out if out.ndim else float(out)

    def padded(self, degree: int) -> TrigSeries:
        """Same series with trailing zeros up to the requested degree."""
        if degree < self.degree:
            raise ValueError(f"cannot pad degree {self.degree} down to {degree}")
        return TrigSeries(self.parity, self.coeffs + (0.0,) * (degree - self.degree))

    def __call__(self, theta):
        return self.evaluate(theta)


def to_laurent(s: TrigSeries) -> np.ndarray:
    """Laurent coefficients of a trig series on the unit circle, exponents -M..M."""
    half = np.asarray(s.coeffs[1:], dtype=complex) / (2.0 if s.parity == EVEN else 2.0j)
    mirror = half if s.parity == EVEN else -half
    return np.concatenate([mirror[::-1], [s.coeffs[0]], half])
