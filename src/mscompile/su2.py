"""2x2 unitary helpers shared by the angle-sequence and simulation code.

Rotation conventions: R_a(t) = exp(-i * t/2 * sigma_a), so every rotation
has period 4*pi and R_a(2*pi) = -1.
"""

from __future__ import annotations

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rx(angle: float) -> np.ndarray:
    """exp(-i*angle/2 * X)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]])


def ry(angle: float) -> np.ndarray:
    """exp(-i*angle/2 * Y)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def rz(angle: float) -> np.ndarray:
    """exp(-i*angle/2 * Z)."""
    p = np.exp(-0.5j * angle)
    return np.array([[p, 0.0], [0.0, np.conj(p)]])


def canonical_angle(angle: float) -> float:
    """Fold a rotation angle into (-2*pi, 2*pi], respecting the 4*pi period."""
    folded = float(np.remainder(angle, 4.0 * np.pi))  # [0, 4*pi)
    if folded > 2.0 * np.pi:
        folded -= 4.0 * np.pi
    return folded
