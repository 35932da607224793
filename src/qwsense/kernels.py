"""Hot split-step kernel: one vectorized numpy step body.

The walk spends essentially all of its time applying one step of
U = T_down R2 T_up R1 to a state vector or a stack of them; ``split_step``
is that step, and every walk in the package runs through it.

The joint step of a state and its theta02-derivative, ``split_step_pair``,
is that step applied to psi and to dpsi, plus a two-entry correction at the
defect from differentiating the defect's layer-2 coin.  The correction reads
the two layer-1 outputs that coin mixes (``defect_coin_inputs``); the
batched candidate walk in ``bayes`` redoes the defect coin from the same two.

``BACKEND`` names the step body, for run records.

Layout contract: a state is a float64 or complex128 array of shape (N, 2)
with the coin pair (up, down) contiguous per site (``walk.propagate`` steps
float64 for a real start state, complex128 otherwise, and the candidate
walks in ``bayes`` are float64); site index i maps to physical
position x = i - (N - 1) // 2.  Coin tables are the per-site half-angle
cosines/sines of the two coin layers.  The kernels also take a batch of B
walks, shape (B, N, 2), with either one (N,) table set shared by every walk
or (B, N) tables, one row per walk; tables are always indexed on their last
axis.  Every coin and shift is real, so a real (float64) stack stays real,
and its values are the real parts of the same complex stack's, bit for bit
(up to the sign of zero).

The ring is periodic, so a kernel call on a contiguous window of rows wraps
within the window: output row i reads input rows i - 1..i + 1, and only the
up component of the first row and the down component of the last row read
across the wrap.  The step is therefore exact on the window when its first
and last rows hold zeros, which is how ``walk.propagate`` steps a walk's
forward light cone.  When they do not, only those two output cells are
wrong; a next window one row narrower per side drops them, which is how
``walk.light_cone``'s causal diamond keeps the defect row exact.  The window
is a view into the full-size buffers and may be non-contiguous.
"""

import numpy as np

BACKEND = "numpy"


def split_step(amps, cos1, sin1, cos2, sin2, out):
    """One split step.

    amps/out: (N, 2) or (B, N, 2), complex128 or float64; cos*/sin*: (N,)
    half-angle tables shared by every walk, or (B, N), one row per walk.
    Sweeps: coin layer 1, shift up (+1) of the up component, coin layer 2,
    shift down (-1) of the down component; periodic wrap.  The shifts are
    slice copies (np.roll costs more per call than a small step).
    """
    a_up, a_down = amps[..., 0], amps[..., 1]
    up = cos1 * a_up - sin1 * a_down
    down = sin1 * a_up + cos1 * a_down
    up = np.concatenate((up[..., -1:], up[..., :-1]), axis=-1)
    out[..., 0] = cos2 * up - sin2 * down
    mixed = sin2 * up + cos2 * down
    out[..., :-1, 1] = mixed[..., 1:]
    out[..., -1, 1] = mixed[..., 0]
    return out


def defect_coin_inputs(amps, cos1, sin1, defect):
    """The two layer-1 outputs the layer-2 coin at ``defect`` mixes.

    fu is the up amplitude shifted in from ``defect - 1`` (periodic), fd the
    defect's own down amplitude; amps: (..., N, 2), one pair per walk, with
    (N,) or (..., N) tables.
    """
    left, here = amps[..., defect - 1, :], amps[..., defect, :]
    fu = cos1[..., defect - 1] * left[..., 0] - sin1[..., defect - 1] * left[..., 1]
    fd = sin1[..., defect] * here[..., 0] + cos1[..., defect] * here[..., 1]
    return fu, fd


def split_step_pair(amps, damps, cos1, sin1, cos2, sin2, defect, out, dout):
    """Joint step of (psi, dpsi/dtheta02); exact product rule.

    The derivative picks up U dpsi plus the defect term T_down (dR) phi where
    phi = T_up R1 psi and dR = dR/dtheta(theta02) acts at ``defect`` only, so
    only two entries of U dpsi are corrected.  Shapes as in ``split_step``;
    ``defect`` indexes the site axis of every walk.
    """
    split_step(amps, cos1, sin1, cos2, sin2, out)
    split_step(damps, cos1, sin1, cos2, sin2, dout)
    c02 = cos2[..., defect]
    s02 = sin2[..., defect]
    fu, fd = defect_coin_inputs(amps, cos1, sin1, defect)
    dout[..., defect, 0] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[..., defect - 1, 1] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out, dout
