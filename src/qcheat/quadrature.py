"""Row-batched adaptive Gauss-Kronrod 7/15 quadrature with deterministic panel sums.

`gk_rows` integrates many independent rows at once.  Each row keeps the
classic adaptive policy on its own: it starts from min_panels equal panels,
always splits the panel with the largest error estimate (ties broken by
creation index), and stops once the compensated (fsum) sum of the panel
errors is below max(abs_tol, rel_tol |value|, the round-off floor of the
panel magnitudes), or fails with ToleranceError when the next split would
exceed max_evals.  The budget covers the initial panels too: a row that asks
for more gets only the panels it covers and fails after one round, so no row
costs more than max_evals evaluations.  Only the work is batched: the rows
refine in groups of consecutive rows that start with about _GROUP_PANELS
panels, and each refinement round evaluates every pending panel of every
active row of the group in one integrand call, first all initial panels,
then both halves of each row's split, in calls of at most _PANEL_CHUNK
panels.  The integrand takes a
(rows, nodes) pair with nodes of shape (P, 15), and the panel sums are
row-wise reductions, so a row's result is the same bits whatever rows share
its batch and in whatever order.  `adaptive_gk` is the one-row entry point.

The bookkeeping of a round is array work too.  The panels of the live rows
sit in flat arrays (row, ends, value, error), grouped by row with each row's
panels in creation order; a row's worst panel is the first maximum of its
segment, and a split moves the right half to the end of the segment.  The
stopping test runs first on recursive segment sums (np.add.reduceat).  Only
a row whose error sum clears its target by more than the rounding bound of
those sums splits on that test alone; every other row, and so every row
that finishes, takes the fsum test above on its panels.  So each row's
decisions, value and error are those of the fsum test in every round.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ToleranceError", "adaptive_gk", "gk_rows", "gk_nodes_weights", "composite_gk_nodes"]

# 15-point Kronrod abscissae on [-1, 1] and the embedded 7-point Gauss rule
_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

# the embedded 7-point Gauss weights at their Kronrod nodes, zero elsewhere
_WG15 = np.zeros(15)
_WG15[1::2] = _WG

# most panels per integrand call: the kernel's integrand holds about ten
# (P, 15) float arrays at once, 60 KiB each at this size; a round with more
# pending panels (many rows, or a far, fast-oscillating kernel row) is
# evaluated in slices of this size
_PANEL_CHUNK = 512

# gk_rows refines its rows in groups of consecutive rows that start with
# about this many panels: bounds the panel state and the rows of one round
_GROUP_PANELS = 1024

_TINY = np.finfo(float).tiny

_NOT_FINITE = "quadrature integrand is not finite on this row (value %r, err %r)"


class ToleranceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate and its error bound.
    """

    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


def gk_nodes_weights(a, b):
    """Kronrod nodes on [a, b] plus (kronrod, gauss-embedded) weights.

    a and b may be arrays of panel ends; each panel then gets a row of 15.
    """
    half = (0.5 * (np.asarray(b) - a))[..., None]
    mid = (0.5 * (np.asarray(a) + b))[..., None]
    return mid + half * _XGK, half * _WGK, half * _WG15


def _gk15(f, rows, lo, hi):
    """K15 value and QUADPACK-style error estimate of panel [lo_i, hi_i] of row rows_i."""
    # gk_nodes_weights's nodes and weights, but the weights are made once f
    # has returned: fewer arrays live while f runs keeps the kernel's
    # integrand in cache (10 % faster kernel-table rows) and its peak lower
    half = (0.5 * (hi - lo))[:, None]
    y = f(rows, (0.5 * (lo + hi))[:, None] + half * _XGK)
    wk = half * _WGK
    # row-wise reductions: a panel's sums do not depend on its place in the batch
    resk = np.einsum("ij,ij->i", wk, y)
    resg = np.einsum("ij,ij->i", half * _WG15, y)
    mean = (resk * 0.5) / (0.5 * (hi - lo))
    asc = np.einsum("ij,ij->i", wk, np.abs(y - mean[:, None]))
    diff = np.abs(resk - resg)
    positive = asc > 0.0
    scaled = np.minimum(1.0, 200.0 * diff / np.where(positive, asc, 1.0))
    err = np.where(positive, asc * scaled**1.5, diff)
    return resk, np.maximum(err, np.abs(resk) * 1e-15)


def _exact_round(vs, es, n_evals, starved, wanted, abs_tol, rel_tol, max_evals):
    """A row's stopping test on its panel values vs and errors es (lists in slot order), with fsum.

    Returns the row's result, (value, err, n_evals) or a ToleranceError, or
    the slot of the panel to split next.
    """
    try:
        total = math.fsum(vs)
        err_sum = math.fsum(es)
        # panel error estimates cannot resolve below the round-off floor of
        # the magnitude sum; demanding more would loop forever
        noise_floor = 1e-13 * math.fsum(map(abs, vs))
    except (ValueError, OverflowError):  # +inf and -inf among the values, or a sum past the float range
        total, err_sum = sum(vs), sum(es)
        return ToleranceError(_NOT_FINITE % (total, err_sum), value=total, err=err_sum)
    target = max(abs_tol, rel_tol * abs(total), noise_floor)
    if math.isnan(total) or math.isnan(err_sum):
        # no split makes a NaN panel finite again
        return ToleranceError(_NOT_FINITE % (total, err_sum), value=total, err=err_sum)
    if starved:
        msg = "quadrature needs more than %d evaluations for %.4g initial panels" % (max_evals, wanted)
        return ToleranceError(msg, value=total, err=err_sum)
    if err_sum <= target:
        # fsum is correctly rounded, so the sums do not depend on panel order
        return (total, err_sum, n_evals)
    if n_evals + 30 > max_evals:
        return ToleranceError(
            "quadrature needs more than %d evaluations (err %.3e > target %.3e)" % (max_evals, err_sum, target),
            value=total,
            err=err_sum,
        )
    return es.index(max(es))


def gk_rows(f, a, b, rel_tol, abs_tol, max_evals, min_panels):
    """Adaptive integrals of f over [a_r, b_r], one per row r, refined together.

    f(rows, nodes) gets row indices (P,) and nodes (P, 15) and returns the
    integrand values (P, 15).  a, b, abs_tol and min_panels are per-row
    sequences; rel_tol and max_evals are shared.  Returns one entry per row:
    (value, error_estimate, n_evals), or a ToleranceError carrying the best
    estimate when max_evals runs out first.  A row whose min_panels (a float
    may exceed any int) exceeds max_evals / 15 gets the max_evals // 15
    panels the budget covers and fails after that round with their estimate.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    abs_tol = np.asarray(abs_tol, dtype=float)
    wanted = np.asarray(min_panels, dtype=float)
    counts = np.minimum(wanted, max(max_evals // 15, 1)).astype(int)
    # groups of consecutive rows that start with about _GROUP_PANELS panels
    # are refined one after another, each in a call of its own
    cuts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // _GROUP_PANELS)) + 1
    if len(cuts):
        out = []
        for g in np.split(np.arange(len(b)), cuts):
            out += gk_rows(
                lambda rows, x, first=g[0]: f(rows + first, x), a[g], b[g], rel_tol, abs_tol[g], max_evals, wanted[g]
            )
        return out
    starved = 15.0 * wanted > max_evals
    n_evals = 15 * counts
    out = [None] * len(b)
    # the panels of the live rows, grouped by row in row order, each row's
    # in creation order; row `live[i]` holds `size[i]` panels from `start[i]`
    live = np.arange(len(b))
    size = counts
    start = np.cumsum(size) - size
    row = np.repeat(live, size)
    # the edges of np.linspace(a_r, b_r, p + 1), same arithmetic
    lo = (np.arange(len(row)) - start[row]) * ((b - a) / counts)[row] + a[row]
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[start + size - 1] = b
    val, err = np.zeros_like(lo), np.zeros_like(lo)
    pending = np.arange(len(row))
    while len(live):
        for c in range(0, len(pending), _PANEL_CHUNK):
            p = pending[c : c + _PANEL_CHUNK]
            val[p], err[p] = _gk15(f, row[p], lo[p], hi[p])
        # The stopping test on recursive sums: a sum of k terms is off by at
        # most gamma_k sum |x_i| (Higham, ch. 4) and fsum by half an ulp, so a
        # row whose error sum stays above its target by the slack `grow` (with
        # room for the rounding of the test itself, and TINY for underflow)
        # splits under the fsum test too.  Non-finite or huge sums, where fsum
        # may raise, fail the comparisons without a warning.  The other rows,
        # and so every row that finishes, take the fsum test of _exact_round.
        with np.errstate(over="ignore", invalid="ignore"):
            err_sum = np.add.reduceat(err, start)
            mag = np.add.reduceat(np.abs(val), start)
            total = np.add.reduceat(val, start)
            grow = (size + 8) * 2.0**-50
            target = np.maximum(abs_tol[live], np.maximum(rel_tol * (np.abs(total) + grow * mag), 1e-13 * mag))
            splits = (
                (err_sum < 1e300)
                & (mag < 1e300)
                & (err_sum * (1.0 - grow) > target * (1.0 + grow) + _TINY)
                & ~starved[live]
                & (n_evals[live] + 30 <= max_evals)
            )
        # the first panel of largest error in each row: the slot es.index(max(es)) finds
        top = np.repeat(np.maximum.reduceat(err, start), size)
        worst = np.minimum.reduceat(np.where(err == top, np.arange(len(err)), len(err)), start) - start
        for i in np.flatnonzero(~splits).tolist():
            r, seg = int(live[i]), slice(start[i], start[i] + size[i])
            res = _exact_round(
                val[seg].tolist(), err[seg].tolist(), int(n_evals[r]), starved[r], float(wanted[r]),
                float(abs_tol[r]), rel_tol, max_evals,
            )
            if isinstance(res, int):
                splits[i], worst[i] = True, res
            else:
                out[r] = res
        # keep the splitting rows; each panel shifts by the splitting rows
        # before its own, and each row's right half goes after its last panel
        keep = np.repeat(splits, size)
        live, size, worst = live[splits], size[splits], worst[splits]
        row, lo, hi, val, err = row[keep], lo[keep], hi[keep], val[keep], err[keep]
        start = np.cumsum(size) - size
        left = start + worst
        mid = 0.5 * (lo[left] + hi[left])
        right_hi = hi[left]
        hi[left] = mid
        ends = start + size
        row, lo, hi = np.insert(row, ends, live), np.insert(lo, ends, mid), np.insert(hi, ends, right_hi)
        val, err = np.insert(val, ends, 0.0), np.insert(err, ends, 0.0)
        shift = np.arange(len(live))
        start += shift
        pending = np.stack([left + shift, ends + shift], axis=1).ravel()
        size = size + 1
        n_evals[live] += 30
    return out


def adaptive_gk(f, a, b, rel_tol=1e-10, abs_tol=1e-13, max_evals=100_000, min_panels=4):
    """Adaptive integration of a vectorized integrand f(nodes) on [a, b].

    The one-row case of gk_rows.  Returns (value, error_estimate, n_evals).
    Raises ToleranceError (with the best estimate attached) if max_evals is
    exhausted first.
    """
    if not b > a:
        raise ValueError("need b > a")
    (res,) = gk_rows(lambda rows, x: f(x), [a], [b], rel_tol, [abs_tol], max_evals, [min_panels])
    if isinstance(res, ToleranceError):
        raise res
    return res


def composite_gk_nodes(a, b, n_panels):
    """Fixed composite Kronrod grid: nodes plus K15 and embedded G7 weights."""
    edges = np.linspace(a, b, n_panels + 1)
    return tuple(arr.ravel() for arr in gk_nodes_weights(edges[:-1], edges[1:]))
