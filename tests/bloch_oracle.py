"""Test-only reference for the clean walk's momentum-space structure.

The translationally invariant step operator block-diagonalizes over momentum
into U(k) = d0 I + i (dx sx + dy sy + dz sz) with quasi-energy
E(k) = arccos(d0) in [0, pi] and Bloch vector n(k) = (dx, dy, dz)/sin E.
``quadrature_winding`` integrates the winding of n(k) about the axis
A = (cos(theta1/2), 0, sin(theta1/2)) by periodic trapezoidal quadrature and
reports how far the integral sat from an integer, and its ``min_gap`` is the
least sin E on the k grid.  The library's ``topology.phase_diagram`` uses the
closed form and the two band edges instead; this module is the independent
algorithm the tests hold it to.
"""

from dataclasses import dataclass

import numpy as np

from qwsense.topology import GAP_TOLERANCE, GAPLESS, GAPPED, PhasePoint

DEFAULT_NK = 2048


def momentum_grid(n_k: int) -> np.ndarray:
    """Uniform periodic grid over [-pi, pi) with n_k points; k = 0 is on it for an even n_k."""
    return -np.pi + 2.0 * np.pi * np.arange(n_k) / n_k


def _check_n_k(n_k):
    # an odd grid has no k = 0, where the gap of theta1 = -theta2 closes
    if n_k < 64 or n_k % 2:
        raise ValueError(f"n_k must be even and >= 64, got {n_k}")


@dataclass
class BlochDecomposition:
    k: np.ndarray
    d0: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    quasi_energy: np.ndarray
    unit_vector: np.ndarray  # (nk, 3); NaN rows where sin E <= gap tolerance
    axis: np.ndarray


@dataclass
class QuadraturePoint(PhasePoint):
    residual: float | None = None  # |pre-rounding winding - integer|; None when gapless


def bloch_components(theta1: float, theta2: float, k_grid: np.ndarray) -> BlochDecomposition:
    """Evaluate d0..dz, E(k), n(k) and the reference axis A on a k grid."""
    k = np.asarray(k_grid, dtype=np.float64)
    if k.ndim != 1 or k.size < 8:
        raise ValueError("k grid must be 1D with at least 8 points")
    c1, s1 = np.cos(theta1 / 2.0), np.sin(theta1 / 2.0)
    c2, s2 = np.cos(theta2 / 2.0), np.sin(theta2 / 2.0)
    d0 = c2 * c1 * np.cos(k) - s2 * s1
    dx = c2 * s1 * np.sin(k)
    dy = c2 * s1 * np.cos(k) + s2 * c1
    dz = -c2 * c1 * np.sin(k)
    energy = np.arccos(np.clip(d0, -1.0, 1.0))
    sin_e = np.sin(energy)
    vec = np.stack([dx, dy, dz], axis=1)
    unit = np.full_like(vec, np.nan)
    defined = sin_e > GAP_TOLERANCE
    unit[defined] = vec[defined] / sin_e[defined, None]
    axis = np.array([c1, 0.0, s1])
    return BlochDecomposition(k, d0, dx, dy, dz, energy, unit, axis)


def _periodic_derivative(values: np.ndarray, dk: float) -> np.ndarray:
    """Five-point centered difference on a periodic grid (O(dk^4))."""
    return (
        -np.roll(values, -2, axis=0)
        + 8.0 * np.roll(values, -1, axis=0)
        - 8.0 * np.roll(values, 1, axis=0)
        + np.roll(values, 2, axis=0)
    ) / (12.0 * dk)


def quadrature_winding(theta1: float, theta2: float, n_k: int = DEFAULT_NK) -> QuadraturePoint:
    """Winding of n(k) about A, by periodic trapezoidal quadrature.

    Returns a gapless point (winding undefined) when min |sin E| falls
    below the gap tolerance; otherwise the integral is rounded to the nearest
    integer and the pre-rounding residual is reported.
    """
    _check_n_k(n_k)
    bloch = bloch_components(theta1, theta2, momentum_grid(n_k))
    min_gap = float(np.sin(bloch.quasi_energy).min())
    if min_gap < GAP_TOLERANCE:
        return QuadraturePoint(theta1, theta2, None, min_gap, GAPLESS)
    n_vec = bloch.unit_vector
    dk = 2.0 * np.pi / n_k
    dn = _periodic_derivative(n_vec, dk)
    integrand = np.cross(n_vec, dn) @ bloch.axis
    raw = float(-integrand.sum() * dk / (2.0 * np.pi))
    winding = int(round(raw))
    return QuadraturePoint(theta1, theta2, winding, min_gap, GAPPED, abs(raw - winding))
