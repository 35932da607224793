"""Hot split-step kernels: numba-compiled loops with a pure-numpy fallback.

The walk spends essentially all of its time applying one step of
U = T_down R2 T_up R1 to a state vector (and, for Fisher-information work,
to the state/derivative pair).  Both kernels exist in two interchangeable
implementations:

* loop versions compiled with ``numba.njit`` (default when numba imports),
* vectorized numpy versions (fallback, and always available for testing).

Set the environment variable ``QWSENSE_NO_NUMBA=1`` before import to force
the numpy path.  ``BACKEND`` records which one is active.

Layout contract: a state is a C-contiguous complex128 array of shape (N, 2)
with the coin pair (up, down) contiguous per site; site index i maps to
physical position x = i - (N - 1) // 2.  Coin tables are the per-site
half-angle cosines/sines of the two coin layers.  The step kernel also takes
a stack of walks, shape (..., N, 2), that share one set of tables; every
coin and shift is real, so a real (float64) stack stays real.
"""

import os

import numpy as np


def _env_disables_numba() -> bool:
    return os.environ.get("QWSENSE_NO_NUMBA", "").strip().lower() not in ("", "0", "false", "no")


try:
    if _env_disables_numba():
        raise ImportError("numba disabled via QWSENSE_NO_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    njit = None
    NUMBA_ENABLED = False

BACKEND = "numba" if NUMBA_ENABLED else "numpy"


def split_step_numpy(amps, cos1, sin1, cos2, sin2, out):
    """One split step, vectorized numpy path.

    amps/out: (..., N, 2) complex128 or float64; cos*/sin*: (N,) float64
    half-angle tables, shared by every walk in the stack.
    Sweeps: coin layer 1, shift up (+1) of the up component, coin layer 2,
    shift down (-1) of the down component; periodic wrap.
    """
    up = cos1 * amps[..., 0] - sin1 * amps[..., 1]
    down = sin1 * amps[..., 0] + cos1 * amps[..., 1]
    up = np.roll(up, 1, axis=-1)
    out[..., 0] = cos2 * up - sin2 * down
    out[..., 1] = np.roll(sin2 * up + cos2 * down, -1, axis=-1)
    return out


def split_step_pair_numpy(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    """Joint step of (psi, dpsi/dtheta02); exact product rule, numpy path.

    The derivative picks up U dpsi plus the defect term T_down (dR) phi where
    phi = T_up R1 psi and dR = dR/dtheta(theta02) acts at ``defect`` only.
    """
    n = amps.shape[0]
    up = cos1 * amps[:, 0] - sin1 * amps[:, 1]
    down = sin1 * amps[:, 0] + cos1 * amps[:, 1]
    phi_up = np.roll(up, 1)
    out[:, 0] = cos2 * phi_up - sin2 * down
    out[:, 1] = np.roll(sin2 * phi_up + cos2 * down, -1)

    dup = cos1 * damps[:, 0] - sin1 * damps[:, 1]
    ddown = sin1 * damps[:, 0] + cos1 * damps[:, 1]
    dphi_up = np.roll(dup, 1)
    dout[:, 0] = cos2 * dphi_up - sin2 * ddown
    dout[:, 1] = np.roll(sin2 * dphi_up + cos2 * ddown, -1)

    c02 = cos2[defect]
    s02 = sin2[defect]
    fu = phi_up[defect]
    fd = down[defect]
    dout[defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[(defect - 1) % n, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout


def _split_step_loops(amps, cos1, sin1, cos2, sin2, out):
    n = amps.shape[-2]
    walks = amps.reshape((-1, n, 2))
    outs = out.reshape((-1, n, 2))  # a view: states are C-contiguous
    phi_up = np.empty(n, amps.dtype)
    phi_down = np.empty(n, amps.dtype)
    for b in range(walks.shape[0]):
        a = walks[b]
        o = outs[b]
        for i in range(n):
            u = cos1[i] * a[i, 0] - sin1[i] * a[i, 1]
            j = i + 1 if i + 1 < n else 0
            phi_up[j] = u
            phi_down[i] = sin1[i] * a[i, 0] + cos1[i] * a[i, 1]
        for i in range(n):
            j = i - 1 if i > 0 else n - 1
            o[i, 0] = cos2[i] * phi_up[i] - sin2[i] * phi_down[i]
            o[j, 1] = sin2[i] * phi_up[i] + cos2[i] * phi_down[i]
    return out


def _split_step_pair_loops(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    n = amps.shape[0]
    phi_up = np.empty(n, np.complex128)
    phi_down = np.empty(n, np.complex128)
    dphi_up = np.empty(n, np.complex128)
    dphi_down = np.empty(n, np.complex128)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        phi_up[j] = cos1[i] * amps[i, 0] - sin1[i] * amps[i, 1]
        phi_down[i] = sin1[i] * amps[i, 0] + cos1[i] * amps[i, 1]
        dphi_up[j] = cos1[i] * damps[i, 0] - sin1[i] * damps[i, 1]
        dphi_down[i] = sin1[i] * damps[i, 0] + cos1[i] * damps[i, 1]
    for i in range(n):
        j = i - 1 if i > 0 else n - 1
        out[i, 0] = cos2[i] * phi_up[i] - sin2[i] * phi_down[i]
        out[j, 1] = sin2[i] * phi_up[i] + cos2[i] * phi_down[i]
        dout[i, 0] = cos2[i] * dphi_up[i] - sin2[i] * dphi_down[i]
        dout[j, 1] = sin2[i] * dphi_up[i] + cos2[i] * dphi_down[i]
    c02 = cos2[defect]
    s02 = sin2[defect]
    fu = phi_up[defect]
    fd = phi_down[defect]
    dout[defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    j = defect - 1 if defect > 0 else n - 1
    dout[j, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout


if NUMBA_ENABLED:
    split_step_loops = njit(cache=True)(_split_step_loops)
    split_step_pair_loops = njit(cache=True)(_split_step_pair_loops)
    split_step = split_step_loops
    split_step_pair = split_step_pair_loops
else:
    split_step_loops = _split_step_loops
    split_step_pair_loops = _split_step_pair_loops
    split_step = split_step_numpy
    split_step_pair = split_step_pair_numpy
