"""Hot split-step kernel: one vectorized numpy step body and the defect coin.

The walk spends essentially all of its time applying one step of
U = T_down R2 T_up R1 to a state vector or a stack of them.  ``split_step``
is that step with the bulk coins, and every walk runs through it;
``defect_coin`` then redoes the two cells the defect's layer-2 coin writes,
for every walker: the walks of ``walk.propagate`` (with one defect coin
per walk for the Bayesian candidates) and the column stacks of
``spectral._step_columns`` (the step matrix and the Schur residual).
``split_step_pair`` steps a state and its theta02-derivative stacked as one
buffer: one ``split_step``, the defect coin on each half, and a two-cell
derivative term that reads the (fu, fd) ``defect_coin`` returned for psi.
For one walk the defect arithmetic runs on Python floats, not on 0-d arrays.

``BACKEND`` names the step body, for run records.

Layout contract: a state is a float64 or complex128 array of shape (N, 2)
with the coin pair (up, down) on the last axis; site index i maps to
physical position x = i - (N - 1) // 2.  The walks of ``walk.propagate``
all start at the real |-1, down> and step float64;
``spectral.build_step_matrix`` steps float64 basis columns
into a complex128 matrix ``spectral.BLOCK`` columns at a time (never the
whole identity), and the Schur residual steps complex128 blocks of its
Schur vectors the same way.  Coin tables are the half-angle cosines/sines of
the two bulk coin layers, and each broadcasts against the site axis: a
float (one coin for every site of every walk), a (..., 1) column (one coin
per walk) or a (..., N) table (one per site; static disorder).  The defect
coin is in no table, and a table's entry at the defect is never read.  The
kernels also take a batch of B walks, shape (B, N, 2).  A state or batch
may be a view with any strides: every pass is an elementwise ufunc or a
slice copy, and numpy runs its inner loop along whichever axis is
contiguous in memory, with the same values in any layout.
``walk.propagate`` steps every batch as the (B, N, 2) view of a (N, 2, B)
array, so each pass runs contiguously over the B walks with one coin as a
scalar.
The pair kernel's stacked buffer puts psi at [0] and dpsi at [1] of a
leading axis of length 2: (2, N, 2) for one walk, (2, B, N, 2) for a batch.
Multiplying by a broadcast coin is the same IEEE operation as multiplying
by a table that holds it, and the defect cells are computed with the
expressions, in the order, that a full per-site table gave them; so every
form of the tables gives the same bits.  Every coin and shift is real, so a
real (float64) stack stays real, and its values are the real parts of the
same complex stack's, bit for bit (up to the sign of zero).

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
Every window holds the defect and the row before it, so the defect coin's
cells are in the window.
"""

import numpy as np

BACKEND = "numpy"


def split_step(amps, cos1, sin1, cos2, sin2, out):
    """One split step with the bulk coins.

    amps/out: (N, 2) or (B, N, 2), complex128 or float64; cos*/sin*: coin
    tables that broadcast against the site axis (module docstring).  Sweeps:
    coin layer 1, shift up (+1) of the up component, coin layer 2, shift
    down (-1) of the down component; periodic wrap.  The shifts are slice
    copies (np.roll costs more per call than a small step).
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


def _at_site(table, site):
    """A coin table's entry at ``site`` for every walk: a float, or one entry per walk.

    A float or a (..., 1) column holds one coin for every site.
    """
    if isinstance(table, float):
        return table
    entry = table[..., 0 if table.shape[-1] == 1 else site]
    return entry if entry.ndim else float(entry)


def defect_coin(amps, cos1, sin1, defect, cos02, sin02, out):
    """Layer 2 at ``defect`` with the defect coin: rewrites the two cells it writes.

    ``out`` is ``split_step`` of ``amps`` on the bulk tables; its up cell at
    ``defect`` and its down cell at ``defect - 1`` become the defect coin
    (cos02, sin02) applied to the two layer-1 outputs it mixes, which are
    returned as (fu, fd): fu is the up amplitude shifted in from
    ``defect - 1`` (periodic), fd the defect's own down amplitude.  amps:
    (..., N, 2), one pair per walk, with tables as in ``split_step``;
    cos02/sin02 are floats, or one entry per walk.  For one (N, 2) walk the
    amplitudes are read with one ``tolist`` and fu, fd are Python floats
    (complex for a complex walk).
    """
    left = defect - 1
    if amps.ndim == 2:
        rows = amps[left:defect + 1] if defect else amps[[left, defect]]
        (up_left, down_left), (up_here, down_here) = rows.tolist()
        walks = ()
    else:
        up_left, down_left = amps[..., left, 0], amps[..., left, 1]
        up_here, down_here = amps[..., defect, 0], amps[..., defect, 1]
        walks = (Ellipsis,)
    fu = _at_site(cos1, left) * up_left - _at_site(sin1, left) * down_left
    fd = _at_site(sin1, defect) * up_here + _at_site(cos1, defect) * down_here
    out[walks + (defect, 0)] = cos02 * fu - sin02 * fd
    out[walks + (left, 1)] = sin02 * fu + cos02 * fd
    return fu, fd


def split_step_pair(pair, cos1, sin1, cos2, sin2, defect, cos02, sin02, out):
    """Joint step of (psi, dpsi/dtheta02) stacked as ``pair``; exact product rule.

    pair/out: (2, N, 2) or (2, B, N, 2), psi at [0] and dpsi at [1]; one
    ``split_step`` call steps both, and ``defect_coin`` sets each half's
    defect cells.  The derivative picks up U dpsi plus the defect term
    T_down (dR) phi where phi = T_up R1 psi and dR = dR/dtheta(theta02) acts
    at ``defect`` only, so only two entries of U dpsi are corrected.  Tables
    and defect coin as in ``split_step`` and ``defect_coin``; ``defect``
    indexes the site axis of every walk.
    """
    split_step(pair, cos1, sin1, cos2, sin2, out)
    fu, fd = defect_coin(pair[0], cos1, sin1, defect, cos02, sin02, out[0])
    dout = out[1]
    defect_coin(pair[1], cos1, sin1, defect, cos02, sin02, dout)
    walks = () if dout.ndim == 2 else (Ellipsis,)
    dout[walks + (defect, 0)] += -0.5 * sin02 * fu - 0.5 * cos02 * fd
    dout[walks + (defect - 1, 1)] += 0.5 * cos02 * fu - 0.5 * sin02 * fd
    return out
