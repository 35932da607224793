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
y, whose turn as k increases has the sign of c2^2 s1.  So the winding is
sign(s1) when |c2 s1| > |s2 c1| and 0 otherwise (sign(c2 s1) for theta2 in
[-pi, pi], where c2 >= 0): the split-step phase diagram of Kitagawa, Rudner,
Berg and Demler, Phys. Rev. A 82, 033429 (2010).

The gap needs no k grid either.  d0(k) = c1 c2 cos k - s1 s2 is affine in
cos k, so |d0| is largest, and sin E = sin(arccos d0) least, at cos k = -1
or +1: the band edges k = -pi and k = 0.  ``phase_diagram`` is the one
algorithm.  The tests hold it to a quadrature of n(k)'s winding and to the
least gap on an even k grid, kept beside them as a reference.
"""

from dataclasses import dataclass

import numpy as np

GAP_TOLERANCE = 1e-6

GAPPED = "gapped"
GAPLESS = "gapless"


@dataclass
class PhasePoint:
    theta1: float
    theta2: float
    winding: int | None
    min_gap: float
    status: str


def winding_number(theta1: float, theta2: float) -> PhasePoint:
    """The phase label at one point: ``phase_diagram`` on a 1 x 1 grid."""
    return phase_diagram(theta1, theta2)[0][0]


def phase_diagram(theta1_grid, theta2_grid) -> list[list[PhasePoint]]:
    """Phase labels on the product grid; rows follow theta1_grid.

    The winding is the closed form of the module docstring; ``min_gap`` is
    the lesser sin E at the two band edges, and a point whose gap falls
    below ``GAP_TOLERANCE`` is gapless with no winding.  Each theta1 row is
    one (len(theta2_grid), 2) block.
    """
    t1s = np.atleast_1d(np.asarray(theta1_grid, dtype=np.float64))
    t2s = np.atleast_1d(np.asarray(theta2_grid, dtype=np.float64))
    if t1s.size == 0 or t2s.size == 0:
        raise ValueError("phase diagram grids must be non-empty")
    if not (np.isfinite(t1s).all() and np.isfinite(t2s).all()):
        raise ValueError("phase diagram angles must be finite")
    cos_k = np.array([-1.0, 1.0])  # the band edges k = -pi and k = 0
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
