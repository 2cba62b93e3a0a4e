"""2x2 unitary helpers shared by the angle-sequence and simulation code.

Rotation conventions: R_a(t) = exp(-i * t/2 * sigma_a), so every rotation
has period 4*pi and R_a(2*pi) = -1.
"""

from __future__ import annotations

import math

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rotation(axis: str, angle: float) -> tuple[complex, complex]:
    """(a, b) with R_axis(angle) = [[a, -b*], [b, a*]], for axis "x", "y" or "z"."""
    half = angle / 2.0 if math.isfinite(angle) else math.nan  # NaN entries for an inf angle, as numpy gives
    c, s = math.cos(half), math.sin(half)
    if axis == "x":
        return complex(c), complex(0.0, -s)
    if axis == "y":
        return complex(c), complex(s)
    return complex(c, -s), 0j


def matrix(a: complex, b: complex) -> np.ndarray:
    """The SU(2) element [[a, -b*], [b, a*]]."""
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def rx(angle: float) -> np.ndarray:
    """exp(-i*angle/2 * X)."""
    return matrix(*rotation("x", angle))


def rz(angle: float) -> np.ndarray:
    """exp(-i*angle/2 * Z)."""
    return matrix(*rotation("z", angle))


def canonical_angle(angle: float) -> float:
    """Fold a rotation angle into (-2*pi, 2*pi], respecting the 4*pi period."""
    folded = float(np.remainder(angle, 4.0 * np.pi))  # [0, 4*pi)
    if folded > 2.0 * np.pi:
        folded -= 4.0 * np.pi
    return folded


def norm_2x2(m: np.ndarray) -> np.ndarray:
    """Operator 2-norm of each 2x2 matrix in a (..., 2, 2) stack.

    sigma_max^2 = (F + sqrt(F^2 - 4|det|^2)) / 2 with F the squared
    Frobenius norm.  The discriminant is formed as (p - q)^2 + 4|r|^2 from
    m m^H = [[p, r], [r*, q]], which equals F^2 - 4|det|^2 without its
    cancellation when the two singular values are close.
    """
    rows = np.sum(m.real**2 + m.imag**2, axis=-1)
    p, q = rows[..., 0], rows[..., 1]
    r = m[..., 0, 0] * np.conj(m[..., 1, 0]) + m[..., 0, 1] * np.conj(m[..., 1, 1])
    disc = (p - q) ** 2 + 4.0 * (r.real**2 + r.imag**2)
    return np.sqrt(0.5 * (p + q + np.sqrt(disc)))
