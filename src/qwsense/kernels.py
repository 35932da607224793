"""Hot split-step kernel: one vectorized numpy step body.

The walk spends essentially all of its time applying one step of
U = T_down R2 T_up R1 to a state vector or a stack of them; ``split_step``
is that step, and every walk in the package runs through it.

The joint step of a state and its theta02-derivative, ``split_step_pair``,
is one ``split_step`` call on psi and dpsi stacked as one buffer, plus a
two-entry correction at the defect from differentiating the defect's
layer-2 coin.  The correction reads the two layer-1 outputs that coin mixes
(``defect_coin_inputs``); for one walk it indexes them with plain integers,
so it is scalar arithmetic and not a dozen ufunc calls on 0-d arrays.  The
batched candidate walk in ``bayes`` redoes the defect coin from the same two.

``BACKEND`` names the step body, for run records.

Layout contract: a state is a float64 or complex128 array of shape (N, 2)
with the coin pair (up, down) on the last axis; site index i maps to
physical position x = i - (N - 1) // 2.  The walks of ``walk.propagate``
and the candidate walks in ``bayes`` all start at the real |-1, down> and
step float64; ``spectral.build_step_matrix`` steps complex128 basis
columns.  Coin tables are the per-site half-angle cosines/sines of the two
coin layers.  The kernels also take a batch of B walks, shape (B, N, 2),
with either one (N,) table set shared by every walk or (B, N) tables, one
row per walk; tables are always indexed on their last axis.  A state or batch may be a view with any strides: every pass is an
elementwise ufunc or a slice copy, and numpy runs its inner loop along
whichever axis is contiguous in memory, with the same values in any layout.
``walk.propagate`` steps C-ordered buffers; the candidate stack in ``bayes``
is the (B, N, 2) view of a (N, 2, B) array, so each pass runs contiguously
over the B walks with one table entry as a scalar.  The pair kernel's
stacked buffer puts psi at [0] and dpsi at [1] of a leading axis of length
2: (2, N, 2) for one walk, (2, B, N, 2) for a batch.
Every coin and shift is real, so a real (float64) stack stays real, and its
values are the real parts of the same complex stack's, bit for bit (up to
the sign of zero).

The ring is periodic, so a kernel call on a contiguous window of rows wraps
within the window: output row i reads input rows i - 1..i + 1, and only the
up component of the first row and the down component of the last row read
across the wrap.  The step is therefore exact on the window when its first
and last rows hold zeros, which is how ``walk.propagate`` steps a walk's
forward light cone.  When they do not, only those two output cells are
wrong, and every other output cell reads only rows of the window.
``walk.light_cone``'s causal diamond relies on this: its window at step t
is the rows within H - t of the defect, so the next window is one row
narrower per side, drops the two wrong cells, and holds only exact values;
the step into the horizon H runs on the three rows around the defect.  The
window is a view into the full-size buffers and may be non-contiguous.
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
    (N,) or (..., N) tables.  One walk, (N, 2), is indexed with plain
    integers, which read numpy scalars and not 0-d arrays.
    """
    walks = () if amps.ndim == 2 else (Ellipsis,)
    left, here = walks + (defect - 1,), walks + (defect,)
    fu = cos1[left] * amps[left + (0,)] - sin1[left] * amps[left + (1,)]
    fd = sin1[here] * amps[here + (0,)] + cos1[here] * amps[here + (1,)]
    return fu, fd


def split_step_pair(pair, cos1, sin1, cos2, sin2, defect, out):
    """Joint step of (psi, dpsi/dtheta02) stacked as ``pair``; exact product rule.

    pair/out: (2, N, 2) or (2, B, N, 2), psi at [0] and dpsi at [1]; one
    ``split_step`` call steps both.  The derivative picks up U dpsi plus the
    defect term T_down (dR) phi where phi = T_up R1 psi and dR =
    dR/dtheta(theta02) acts at ``defect`` only, so only two entries of U dpsi
    are corrected.  Tables as in ``split_step``; ``defect`` indexes the site
    axis of every walk.
    """
    split_step(pair, cos1, sin1, cos2, sin2, out)
    psi, dout = pair[0], out[1]
    fu, fd = defect_coin_inputs(psi, cos1, sin1, defect)
    walks = () if psi.ndim == 2 else (Ellipsis,)
    left, here = walks + (defect - 1,), walks + (defect,)
    c02 = cos2[here]
    s02 = sin2[here]
    dout[here + (0,)] += -0.5 * s02 * fu - 0.5 * c02 * fd
    dout[left + (1,)] += 0.5 * c02 * fu - 0.5 * s02 * fd
    return out
