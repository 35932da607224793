"""Momentum-space structure of the defect-free walk and the winding number.

The translationally invariant step operator block-diagonalizes over momentum
into U(k) = d0 I + i (dx sx + dy sy + dz sz) with quasi-energy
E(k) = arccos(d0) in [0, pi] and Bloch vector n(k) = (dx, dy, dz)/sin E.
The winding of n(k) about the fixed axis A = (cos(theta1/2), 0, sin(theta1/2))
as k sweeps the Brillouin zone is the integer phase label; it is undefined at
gap closings (sin E -> 0).

The label has a closed form.  With c_i, s_i = cos, sin(theta_i / 2), d(k)
= c2 sin k e + (c2 s1 cos k + s2 c1) y with e = (s1, 0, -c1), e x y = A: an
ellipse normal to A, of semi-axis |c2 s1| along y and centred at s2 c1 on
y, whose turn in ``winding_number``'s sense has the sign of c2^2 s1.  So the
winding is sign(s1) when |c2 s1| > |s2 c1| and 0 otherwise (sign(c2 s1) for
theta2 in [-pi, pi], where c2 >= 0): the split-step phase diagram of Kitagawa,
Rudner, Berg and Demler, Phys. Rev. A 82, 033429 (2010).  ``phase_diagram``
uses it; ``winding_number`` integrates n(k) by quadrature and is the
reference the closed form is tested against.
"""

from dataclasses import dataclass

import numpy as np

GAP_TOLERANCE = 1e-6
DEFAULT_NK = 2048

GAPPED = "gapped"
GAPLESS = "gapless"


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
class PhasePoint:
    theta1: float
    theta2: float
    winding: int | None
    min_gap: float
    status: str
    residual: float | None = None  # |pre-rounding winding - integer|; quadrature only


def momentum_grid(n_k: int) -> np.ndarray:
    """Uniform periodic grid over [-pi, pi) with n_k points; k = 0 is on it for an even n_k."""
    return -np.pi + 2.0 * np.pi * np.arange(n_k) / n_k


def _check_n_k(n_k):
    # an odd grid has no k = 0, where the gap of theta1 = -theta2 closes
    if n_k < 64 or n_k % 2:
        raise ValueError(f"n_k must be even and >= 64, got {n_k}")


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


def winding_number(theta1: float, theta2: float, n_k: int = DEFAULT_NK) -> PhasePoint:
    """Winding of n(k) about A, by periodic trapezoidal quadrature.

    Returns a gapless PhasePoint (winding undefined) when min |sin E| falls
    below the gap tolerance; otherwise the integral is rounded to the nearest
    integer and the pre-rounding residual is reported.
    """
    _check_n_k(n_k)
    bloch = bloch_components(theta1, theta2, momentum_grid(n_k))
    min_gap = float(np.sin(bloch.quasi_energy).min())
    if min_gap < GAP_TOLERANCE:
        return PhasePoint(theta1, theta2, None, min_gap, GAPLESS)
    n_vec = bloch.unit_vector
    dk = 2.0 * np.pi / n_k
    dn = _periodic_derivative(n_vec, dk)
    integrand = np.cross(n_vec, dn) @ bloch.axis
    raw = float(-integrand.sum() * dk / (2.0 * np.pi))
    winding = int(round(raw))
    return PhasePoint(theta1, theta2, winding, min_gap, GAPPED, abs(raw - winding))


def phase_diagram(theta1_grid, theta2_grid, n_k: int = DEFAULT_NK) -> list[list[PhasePoint]]:
    """Phase labels on the product grid; rows follow theta1_grid.

    The winding is the closed form of the module docstring; ``min_gap`` and
    the status come from ``winding_number``'s operations on the same k grid,
    so they equal its bit for bit.  Each theta1 row is one
    (len(theta2_grid), n_k) block.  ``residual`` is left None.
    """
    _check_n_k(n_k)
    t1s = np.atleast_1d(np.asarray(theta1_grid, dtype=np.float64))
    t2s = np.atleast_1d(np.asarray(theta2_grid, dtype=np.float64))
    if t1s.size == 0 or t2s.size == 0:
        raise ValueError("phase diagram grids must be non-empty")
    if not (np.isfinite(t1s).all() and np.isfinite(t2s).all()):
        raise ValueError("phase diagram angles must be finite")
    cos_k = np.cos(momentum_grid(n_k))
    c2, s2 = np.cos(t2s / 2.0), np.sin(t2s / 2.0)
    grid = []
    for t1 in t1s:
        c1, s1 = np.cos(t1 / 2.0), np.sin(t1 / 2.0)
        d0 = (c2 * c1)[:, None] * cos_k - (s2 * s1)[:, None]
        gaps = np.sin(np.arccos(np.clip(d0, -1.0, 1.0))).min(axis=1)
        windings = np.where(np.abs(c2 * s1) > np.abs(s2 * c1), np.sign(s1), 0.0)
        grid.append([
            PhasePoint(float(t1), float(t2), None, float(gap), GAPLESS)
            if gap < GAP_TOLERANCE
            else PhasePoint(float(t1), float(t2), int(winding), float(gap), GAPPED)
            for t2, gap, winding in zip(t2s, gaps, windings)
        ])
    return grid
