"""Hot split-step kernel: a numba-compiled loop with a pure-numpy fallback.

The walk spends essentially all of its time applying one step of
U = T_down R2 T_up R1 to a state vector or a stack of them.  There is one
step body per backend, interchangeable:

* a loop version compiled with ``numba.njit`` (default when numba imports),
* a vectorized numpy version (fallback, and always available for testing).

The joint step of a state and its theta02-derivative, ``split_step_pair``,
is that step applied to psi and to dpsi, plus a two-entry correction at the
defect from differentiating the defect's layer-2 coin.  The correction reads
the two layer-1 outputs that coin mixes (``defect_coin_inputs``); the
batched candidate walk in ``bayes`` redoes the defect coin from the same two.

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


if NUMBA_ENABLED:
    split_step_loops = njit(cache=True)(_split_step_loops)
    split_step = split_step_loops
else:
    split_step_loops = _split_step_loops
    split_step = split_step_numpy


def defect_coin_inputs(amps, cos1, sin1, defect):
    """The two layer-1 outputs the layer-2 coin at ``defect`` mixes.

    fu is the up amplitude shifted in from ``defect - 1`` (periodic), fd the
    defect's own down amplitude; amps: (..., N, 2), one pair per walk.
    """
    left, here = amps[..., defect - 1, :], amps[..., defect, :]
    fu = cos1[defect - 1] * left[..., 0] - sin1[defect - 1] * left[..., 1]
    fd = sin1[defect] * here[..., 0] + cos1[defect] * here[..., 1]
    return fu, fd


def split_step_pair(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    """Joint step of (psi, dpsi/dtheta02); exact product rule.

    The derivative picks up U dpsi plus the defect term T_down (dR) phi where
    phi = T_up R1 psi and dR = dR/dtheta(theta02) acts at ``defect`` only, so
    only two entries of U dpsi are corrected.
    """
    split_step(amps, cos1, sin1, cos2, sin2, out)
    split_step(damps, cos1, sin1, cos2, sin2, dout)
    c02 = cos2[defect]
    s02 = sin2[defect]
    fu, fd = defect_coin_inputs(amps, cos1, sin1, defect)
    dout[defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[defect - 1, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout
