"""Dense spectral decomposition of the step operator and defect-bound states.

The one-step unitary is diagonalized via a complex Schur factorization
(U normal => the Schur form is diagonal to roundoff and the Schur basis is
orthonormal by construction), which sidesteps the non-orthogonality that a
generic non-Hermitian eigensolver produces inside degenerate clusters.  The
defect states of interest here sit at exactly degenerate quasi-energies in
the domain-wall limit, so this matters.  The factorization is LAPACK's
``zgees`` (``_zgees``), with every bit ``scipy.linalg.schur(a,
output="complex")`` gives; the bits depend on the BLAS thread count, so pin
it (say ``OPENBLAS_NUM_THREADS=1``) to compare spectra across runs.

``build_step_matrix`` steps the basis ``BLOCK`` columns at a time, so no
identity or full-size kernel temporary is held beside the matrix.
``decompose_step_operator`` lets ``zgees`` overwrite that matrix, keeps
only T's diagonal, and takes each residual ||U v - lambda v|| by stepping
Q's columns through the kernel the same way, instead of the dense
``mat @ Q - Q * lambda``.  So its peak holds what ``zgees`` itself needs:
the matrix it overwrites, Q and its workspace.
"""

import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import kernels
from .errors import CapacityError, NumericalError
from .walk import CoinField, WalkParams, half_angle

DENSE_SOLVER_CAP = 512
RESIDUAL_TOL = 1e-10
BLOCK = 64  # columns stepped at once: basis columns into the matrix, Q's for the residual
PROFILE_FLOOR = 1e-12


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray  # (2N,) on the unit circle
    quasi_energies: np.ndarray  # (2N,) in (-pi, pi], lambda = exp(-i E)
    eigenvectors: np.ndarray  # (2N, 2N), orthonormal columns
    residuals: np.ndarray  # ||U v - lambda v|| per column
    lattice_size: int

    @cached_property
    def site_profiles(self) -> np.ndarray:
        """(N, 2N) per-site occupation probability of each eigenvector.

        Built on the first read and shared by later ones, so it is read-only.
        """
        n = self.lattice_size
        profiles = (np.abs(self.eigenvectors.reshape(n, 2, 2 * n)) ** 2).sum(axis=1)
        profiles.setflags(write=False)
        return profiles

    @cached_property
    def ipr(self) -> np.ndarray:
        """(2N,) inverse participation ratio, sum over sites of p^2, of each eigenvector."""
        return (self.site_profiles**2).sum(axis=0)


@dataclass
class LocalizedState:
    quasi_energy: float
    profile: np.ndarray  # (N,) per-site probability, sums to 1
    localization_length: float  # amplitude decay length in sites
    ipr: float
    eigen_index: int  # column in the parent decomposition


def _step_columns(columns, tables, params: WalkParams, out: np.ndarray) -> np.ndarray:
    """``out`` = one step of each (N, 2) column of the (k, N, 2) stack ``columns``.

    ``tables`` are the clean bulk coins' ``half_angle_tables``.
    """
    cos1, sin1, cos2, sin2 = tables
    kernels.split_step(columns, cos1, sin1, cos2, sin2, out)
    kernels.defect_coin(columns, cos1, sin1, params.defect_index, *half_angle(params.theta02), out)
    return out


def build_step_matrix(params: WalkParams, tables) -> np.ndarray:
    """Dense 2N x 2N matrix of the step operator: one step of the basis, block by block.

    ``tables`` are the clean bulk coins' ``half_angle_tables``.  The step is
    elementwise per column, so every bit, signed zeros too, is that of one
    step of ``np.eye(2N)``.  The matrix is the transpose of the stepped
    stack: Fortran-contiguous complex128, which ``zgees`` overwrites in place.
    """
    n = params.lattice_size
    out = np.empty((2 * n, n, 2), dtype=np.complex128)
    for start in range(0, 2 * n, BLOCK):
        block = out[start:start + BLOCK]
        _step_columns(np.eye(len(block), 2 * n, start).reshape(block.shape), tables, params, block)
    return out.reshape(2 * n, 2 * n).T


@cache
def _zgees():
    """scipy's f2py wrapper of LAPACK ``zgees``, without running ``scipy/linalg/__init__``.

    The wrapper is loaded straight from its extension file in scipy's
    ``linalg`` directory, unless ``scipy.linalg`` is already imported, in
    which case its wrapper is used.  Importing the ``scipy.linalg`` package
    would cost a fresh interpreter more than the rest of a spectrum run's
    start-up: scipy's array-API layer imports ``numpy.f2py``,
    ``numpy.testing``, ``numpy.ma`` and ``numpy.random``.
    """
    if "scipy.linalg" in sys.modules:
        return sys.modules["scipy.linalg._flapack"].zgees
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    scipy_spec = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack.zgees
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    # an extension with single-phase init registers itself under its dotted
    # name; drop that entry so that a later ``import scipy.linalg`` loads its
    # package as usual (and gets the same wrapper objects)
    if sys.modules.get(spec.name) is flapack:
        del sys.modules[spec.name]
    return flapack.zgees


def complex_schur(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, Q) with mat = Q T Q^H, bit for bit ``scipy.linalg.schur(mat, output="complex")``.

    ``mat`` must be a square complex128 matrix.  A non-finite entry raises
    ``ValueError``; a LAPACK failure raises ``NumericalError``.  A
    Fortran-contiguous ``mat`` is not copied: it becomes T in place.
    """
    zgees = _zgees()
    a = np.asarray_chkfinite(mat)
    # the workspace query, read the way schur reads it; with sort_t=0 LAPACK
    # never calls the eigenvalue selector, and the query leaves ``a`` as it is
    lwork = zgees(lambda w: None, a, lwork=-1, overwrite_a=True)[-2][0].real.astype(np.int_)
    result = zgees(lambda w: None, a, lwork=lwork, overwrite_a=True, sort_t=0)
    info = result[-1]
    if info != 0:
        raise NumericalError(f"complex Schur factorization failed: LAPACK zgees info = {info}")
    return result[0], result[-3]


def _residuals(q_mat: np.ndarray, eigenvalues: np.ndarray, params: WalkParams,
               tables) -> np.ndarray:
    """||U v - lambda v|| of each column v of ``q_mat``, stepped ``BLOCK`` at a time."""
    n = params.lattice_size
    residuals = np.empty(len(eigenvalues))
    stepped = np.empty((BLOCK, 2 * n), dtype=np.complex128)
    for start in range(0, 2 * n, BLOCK):
        columns = q_mat.T[start:start + BLOCK]
        block = stepped[:len(columns)]
        _step_columns(columns.reshape(-1, n, 2), tables, params, block.reshape(-1, n, 2))
        block -= columns * eigenvalues[start:start + BLOCK, None]
        residuals[start:start + BLOCK] = np.linalg.norm(block, axis=1)
    return residuals


def decompose_step_operator(params: WalkParams) -> SpectralDecomposition:
    """Full eigendecomposition of the step unitary with defect, N <= DENSE_SOLVER_CAP."""
    n = params.lattice_size
    if n > DENSE_SOLVER_CAP:
        raise CapacityError(f"lattice size {n} exceeds dense solver cap {DENSE_SOLVER_CAP}")
    tables = CoinField.from_params(params).half_angle_tables()
    t_mat, q_mat = complex_schur(build_step_matrix(params, tables))
    eigenvalues = np.diag(t_mat).copy()
    del t_mat
    residuals = _residuals(q_mat, eigenvalues, params, tables)
    worst = float(residuals.max())
    if worst > RESIDUAL_TOL:
        raise NumericalError(
            f"eigendecomposition residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    energies = -np.angle(eigenvalues)
    energies = np.where(energies <= -np.pi, energies + 2.0 * np.pi, energies)
    return SpectralDecomposition(eigenvalues, energies, q_mat, residuals, n)


def conjugate_pairing_max(eigenvalues: np.ndarray) -> float:
    """The largest distance from an eigenvalue's conjugate to the nearest eigenvalue.

    The step matrix is real, so its spectrum is closed under conjugation and
    this is 0 in exact arithmetic.  On the unit circle the eigenvalue nearest
    conj(lambda) is a neighbour of its angle among the sorted angles (to
    roundoff), so this sorts once: O(N log N) time and O(N) memory.
    """
    ring = eigenvalues[np.argsort(np.angle(eigenvalues))]
    conj = np.conj(eigenvalues)
    above = np.searchsorted(np.angle(ring), np.angle(conj)) % len(ring)
    below = above - 1  # -1 wraps to the largest angle, as above's len wraps to 0
    return float(np.minimum(abs(conj - ring[above]), abs(conj - ring[below])).max())


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
    first drops below the floor.  Probability ~ exp(-2 d / length).  Points
    at fewer than two distances (one per flank at most, as on a flat band's
    compact states) leave the slope undetermined, and the length is inf.
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
    if len({d for d, _ in pts}) < 2:
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
    states' profiles are read-only columns of ``decomp.site_profiles``.
    """
    profiles = decomp.site_profiles
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
