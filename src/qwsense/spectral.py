"""Dense spectral decomposition of the step operator and defect-bound states.

The one-step unitary is diagonalized via a complex Schur factorization
(U normal => the Schur form is diagonal to roundoff and the Schur basis is
orthonormal by construction), which sidesteps the non-orthogonality that a
generic non-Hermitian eigensolver produces inside degenerate clusters.  The
defect states of interest here sit at exactly degenerate quasi-energies in
the domain-wall limit, so this matters.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import schur

from . import kernels
from .errors import CapacityError, NumericalError
from .walk import CoinField, WalkParams

DENSE_SOLVER_CAP = 512
RESIDUAL_TOL = 1e-10
PROFILE_FLOOR = 1e-12


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray  # (2N,) on the unit circle
    quasi_energies: np.ndarray  # (2N,) in (-pi, pi], lambda = exp(-i E)
    eigenvectors: np.ndarray  # (2N, 2N), orthonormal columns
    residuals: np.ndarray  # ||U v - lambda v|| per column
    lattice_size: int

    def site_profiles(self) -> np.ndarray:
        """(N, 2N) per-site occupation probability of each eigenvector.

        Built on the first call and shared by later ones, so it is read-only.
        """
        return self._site_profiles

    @cached_property
    def _site_profiles(self) -> np.ndarray:
        n = self.lattice_size
        profiles = (np.abs(self.eigenvectors.reshape(n, 2, 2 * n)) ** 2).sum(axis=1)
        profiles.setflags(write=False)
        return profiles

    @cached_property
    def ipr(self) -> np.ndarray:
        """(2N,) inverse participation ratio, sum over sites of p^2, of each eigenvector."""
        return (self._site_profiles**2).sum(axis=0)


@dataclass
class LocalizedState:
    quasi_energy: float
    profile: np.ndarray  # (N,) per-site probability, sums to 1
    localization_length: float  # amplitude decay length in sites
    ipr: float
    eigen_index: int  # column in the parent decomposition


def build_step_matrix(coins: CoinField) -> np.ndarray:
    """Dense 2N x 2N matrix of the step operator: one kernel call on the basis stack."""
    n = coins.lattice_size
    out = np.empty((2 * n, n, 2), dtype=np.complex128)
    kernels.split_step(np.eye(2 * n).reshape(2 * n, n, 2), *coins.half_angle_tables(), out)
    return out.reshape(2 * n, 2 * n).T


def decompose_step_operator(params: WalkParams) -> SpectralDecomposition:
    """Full eigendecomposition of the step unitary with defect, N <= DENSE_SOLVER_CAP."""
    n = params.lattice_size
    if n > DENSE_SOLVER_CAP:
        raise CapacityError(f"lattice size {n} exceeds dense solver cap {DENSE_SOLVER_CAP}")
    mat = build_step_matrix(CoinField.from_params(params))
    t_mat, q_mat = schur(mat, output="complex")
    eigenvalues = np.diag(t_mat).copy()
    residuals = np.linalg.norm(mat @ q_mat - q_mat * eigenvalues[None, :], axis=0)
    worst = float(residuals.max())
    if worst > RESIDUAL_TOL:
        raise NumericalError(
            f"eigendecomposition residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    energies = -np.angle(eigenvalues)
    energies = np.where(energies <= -np.pi, energies + 2.0 * np.pi, energies)
    return SpectralDecomposition(eigenvalues, energies, q_mat, residuals, n)


def _flank_points(profile, start, stop, step):
    """(distance-from-core-edge, log p) walking one flank until p < floor."""
    pts = []
    for d, x in enumerate(range(start, stop, step), start=1):
        p = profile[x]
        if p < PROFILE_FLOOR:
            break
        pts.append((d, np.log(p)))
    return pts


def fit_localization_length(profile: np.ndarray) -> float:
    """Amplitude decay length of a localized profile, in sites.

    The localized core (the contiguous sites around the peak holding at
    least half the peak probability; the defect states live on a one- or
    two-site core) is excluded, then log(profile) is regressed against the
    outward distance on both decaying flanks, stopping where the probability
    first drops below the floor.  Probability ~ exp(-2 d / length).
    """
    n = profile.shape[0]
    peak = int(np.argmax(profile))
    half = profile[peak] / 2.0
    right = peak
    while right + 1 < n and profile[right + 1] >= half:
        right += 1
    left = peak
    while left - 1 >= 0 and profile[left - 1] >= half:
        left -= 1
    pts = _flank_points(profile, right + 1, n, 1)
    pts += _flank_points(profile, left - 1, -1, -1)
    if len(pts) < 2:
        return float("inf")
    arr = np.asarray(pts)
    slope = np.polyfit(arr[:, 0], arr[:, 1], 1)[0]
    if slope >= 0:
        return float("inf")
    return float(-2.0 / slope)


def find_localized_states(decomp: SpectralDecomposition) -> list[LocalizedState]:
    """Eigenstates with IPR above 5/N, sorted by |quasi-energy|.

    The threshold 5/N separates the defect pair from extended bulk states by
    well over an order of magnitude at the parameters of interest.  The
    states' profiles are read-only columns of ``decomp.site_profiles()``.
    """
    profiles = decomp.site_profiles()
    ipr = decomp.ipr
    found = []
    for j in np.where(ipr > 5.0 / decomp.lattice_size)[0]:
        profile = profiles[:, j]
        found.append(
            LocalizedState(
                quasi_energy=float(decomp.quasi_energies[j]),
                profile=profile,
                localization_length=fit_localization_length(profile),
                ipr=float(ipr[j]),
                eigen_index=int(j),
            )
        )
    found.sort(key=lambda state: abs(state.quasi_energy))
    return found
