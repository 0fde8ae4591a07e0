"""Row-batched adaptive Gauss-Kronrod 7/15 quadrature with deterministic panel sums.

`gk_rows` integrates many independent rows at once.  Each row keeps the
classic adaptive policy on its own: it starts from min_panels equal panels,
always splits the panel with the largest error estimate (ties broken by
creation index), and stops once the compensated (fsum) sum of the panel
errors is below max(abs_tol, rel_tol |value|, the round-off floor of the
panel magnitudes), or fails with ToleranceError when the next split would
exceed max_evals.  The budget covers the initial panels too: a row that asks
for more gets only the panels it covers and fails after one round, so no row
costs more than max_evals evaluations.  Only the work is batched, through
one streaming window of about _WINDOW panels: the rows wait in row order,
and each round evaluates, in calls of at most _PANEL_CHUNK panels, both
halves of each live row's split and then the initial panels of as many
waiting rows as fit in the rest of the window.  So a row that finishes
frees its room for the next rows at once, and each round's panels, and so
the rows live at once, stay bounded whatever the number of rows.  The
integrand takes a (rows, nodes) pair with nodes of shape (P, 15), and the
panel sums are row-wise reductions, so a row's result is the same bits
whatever rows share its batch and in whatever order.  The results come back
as arrays (value, error, evaluations per row) plus a dict of the rows that
failed; `adaptive_gk` is the one-row entry point.

The bookkeeping of a round is array work too.  The panels of the live rows
sit in flat arrays (row, ends, value, error), grouped by row with each row's
panels in creation order; a row's worst panel is the first maximum of its
segment, and a split moves the right half to the end of the segment.  The
stopping test runs first on recursive segment sums (np.add.reduceat).  Only
a row whose error sum clears its target by more than the rounding bound of
those sums splits on that test alone; every other row, and so every row
that finishes, takes the fsum test above on its panels.  Those rows are
finished together: their panels are read as lists once per round, the
fsum sums are taken on list slices in slot order, and the verdicts are
array comparisons.  So each row's decisions, value and error are those of
the fsum test in every round, with no Python call or object per row
around its sums.
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

# panels of one gk_rows round: the split halves of the live rows plus the
# initial panels of the rows admitted beside them; bounds the rows live at once
_WINDOW = 2048

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


def _fsums(xs, segs):
    """math.fsum of the list xs on each slice of segs, and the k of the slices where fsum raised (NaN there)."""
    try:
        return np.fromiter(map(math.fsum, map(xs.__getitem__, segs)), float, len(segs)), []
    except (ValueError, OverflowError):  # +inf and -inf among the values, or a sum past the float range
        sums, raised = [], []
        for k, seg in enumerate(segs):
            try:
                sums.append(math.fsum(xs[seg]))
            except (ValueError, OverflowError):
                sums.append(math.nan)
                raised.append(k)
        return np.array(sums), raised


def _fsum_test(val, err, size, mag, grow, abs_tol, rel_tol):
    """The sums and target of the fsum test of rows whose panels are consecutive segments of val and err.

    size holds each row's panel count.  Returns (total, err_sum, target,
    bad): the fsum of each row's values and errors, taken on list slices in
    slot order; its target max(abs_tol, rel_tol |total|, 1e-13 fsum
    |values|), as Python's max takes it; and whether its sums are NaN or
    fsum raised, where total and err_sum are the plain left-to-right sums
    instead.  The magnitude fsum is taken only where it may set the target:
    mag and grow are the rows' recursive sums of |values| and their slack
    from gk_rows, so 1e-13 mag (1 + 2 grow) + TINY bounds 1e-13 fsum
    |values| from above when mag < 1e300.
    """
    last = np.cumsum(size)
    segs = list(map(slice, (last - size).tolist(), last.tolist()))
    vl, el = val.tolist(), err.tolist()
    total, raised = _fsums(vl, segs)
    err_sum, raised_err = _fsums(el, segs)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf
        rel = rel_tol * np.abs(total)
        target = np.where(rel > abs_tol, rel, abs_tol)  # NaN never wins, as in max()
        near = np.flatnonzero(~((mag < 1e300) & (1e-13 * mag * (1.0 + 2.0 * grow) + _TINY < target)))
    # panel error estimates cannot resolve below the round-off floor of the
    # magnitude sum; demanding more would loop forever
    for k in near.tolist():
        try:
            floor = 1e-13 * math.fsum(map(abs, vl[segs[k]]))
        except (ValueError, OverflowError):
            raised.append(k)
            continue
        if floor > target[k]:
            target[k] = floor
    bad = np.isnan(total) | np.isnan(err_sum)
    for k in {*raised, *raised_err}:
        bad[k] = True
        total[k], err_sum[k] = sum(vl[segs[k]]), sum(el[segs[k]])
    return total, err_sum, target, bad


def gk_rows(f, a, b, rel_tol, abs_tol, max_evals, min_panels):
    """Adaptive integrals of f over [a_r, b_r], one per row r, refined together.

    f(rows, nodes) gets row indices (P,) and nodes (P, 15) and returns the
    integrand values (P, 15).  a, b, abs_tol and min_panels are per-row
    sequences; rel_tol and max_evals are shared.  Returns (value, err,
    n_evals, failed): float arrays of each row's value and error estimate,
    an int array of its evaluations, and a dict {row: ToleranceError} of the
    rows that missed their tolerance within max_evals, or whose sums are not
    finite.  A failed row's value and err are its best estimate, the ones
    its ToleranceError carries.  A row whose min_panels (a float may exceed
    any int) exceeds max_evals / 15 gets the max_evals // 15 panels the
    budget covers and fails after that round with their estimate.

    The rows stream through one window of _WINDOW panels.  They wait in row
    order; a round evaluates both halves of each live row's split, then the
    initial panels of the waiting rows that fit in the rest of the window,
    where a row takes max(its initial panels, 2), room for the halves of its
    own first split.  When no row is live the next row is admitted even if
    it does not fit, and once no row waits a round admits none.  So a round
    evaluates at most max(_WINDOW, the initial panels of a row admitted
    alone) panels, in integrand calls of at most _PANEL_CHUNK, and at most
    _WINDOW / 2 rows are live at once, each with at most max_evals / 15
    panels.

    The rows a round's recursive sums leave undecided are finished together
    on their fsum sums (_fsum_test), with the verdicts as array comparisons
    in this order: a row fails whose sums are not finite or whose initial
    panels were starved, it is done when its error sum meets its target,
    it fails when another split would pass max_evals, and else it splits.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    abs_tol = np.asarray(abs_tol, dtype=float)
    wanted = np.asarray(min_panels, dtype=float)
    counts = np.minimum(wanted, max(max_evals // 15, 1)).astype(int)
    step = (b - a) / counts
    starved = 15.0 * wanted > max_evals
    n_evals = 15 * counts
    # room[r]: the window rows 0..r take on admission, max(initial panels, 2) each
    room = np.cumsum(np.maximum(counts, 2))
    value, error, failed = np.zeros(len(b)), np.zeros(len(b)), {}
    # the panels of the live rows, grouped by row in row order, each row's
    # in creation order; row `live[i]` holds `size[i]` panels, and panel
    # `worst[i]` of them splits next
    live = size = worst = new_row = np.zeros(0, dtype=int)
    row, lo, hi, val, err = live, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)
    new_lo = new_hi = lo
    queued = 0  # the rows before this one have been admitted
    while len(live) or queued < len(b):
        # each panel shifts by the live rows before its own, and each row's
        # right half goes after its last panel
        start = np.cumsum(size) - size
        left = start + worst
        mid = 0.5 * (lo[left] + hi[left])
        right_hi = hi[left]
        hi[left] = mid
        shift = np.arange(len(live))
        kept = np.arange(len(row)) + np.repeat(shift, size)
        right = start + size + shift
        end = len(row) + len(live)
        pending = np.stack([left + shift, right], axis=1).ravel()
        n_evals[live] += 30
        admitting = queued < len(b)
        if admitting:
            # the waiting rows that fit beside the halves of the live rows'
            # splits, with no row live at least the next one; their initial
            # panels go after all the others
            used = room[queued - 1] if queued else 0
            admit = int(np.searchsorted(room, used + _WINDOW - 2 * len(live), side="right"))
            new = np.arange(queued, max(admit, queued + (not len(live))))
            queued += len(new)
            new_size = counts[new]
            first = np.cumsum(new_size) - new_size
            new_row = np.repeat(new, new_size)
            # the edges of np.linspace(a_r, b_r, p + 1), same arithmetic
            new_lo = (np.arange(len(new_row)) - np.repeat(first, new_size)) * step[new_row] + a[new_row]
            new_hi = np.empty_like(new_lo)
            new_hi[:-1] = new_lo[1:]
            new_hi[first + new_size - 1] = b[new]
            pending = np.concatenate([pending, np.arange(end, end + len(new_row))])
        elif len(new_row):  # no row waits: the rounds from here on admit none
            new_row, new_lo, new_hi = new_row[:0], new_lo[:0], new_hi[:0]

        def grown(panels, halves=None, initial=None):
            # val and err get no halves or initial panels: the calls below write every pending slot
            both = np.empty(end + len(new_row), panels.dtype)
            both[kept] = panels
            if halves is not None:
                both[right] = halves
                both[end:] = initial
            return both

        row, lo, hi = grown(row, live, new_row), grown(lo, mid, new_lo), grown(hi, right_hi, new_hi)
        val, err = grown(val), grown(err)
        if admitting:
            live, size = np.concatenate([live, new]), np.concatenate([size + 1, new_size])
            start = np.cumsum(size) - size
        else:
            size, start = size + 1, start + shift
        for c in range(0, len(pending), _PANEL_CHUNK):
            p = pending[c : c + _PANEL_CHUNK]
            val[p], err[p] = _gk15(f, row[p], lo[p], hi[p])
        # The stopping test on recursive sums: a sum of k terms is off by at
        # most gamma_k sum |x_i| (Higham, ch. 4) and fsum by half an ulp, so a
        # row whose error sum stays above its target by the slack `grow` (with
        # room for the rounding of the test itself, and TINY for underflow)
        # splits under the fsum test too.  Non-finite or huge sums, where fsum
        # may raise, fail the comparisons without a warning.  The other rows,
        # and so every row that finishes, take the fsum test below.
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
        tested = np.flatnonzero(~splits)
        if len(tested):
            rows = live[tested]
            picked = np.repeat(~splits, size) if len(tested) < len(live) else slice(None)
            total, err_sum, target, bad = _fsum_test(
                val[picked], err[picked], size[tested], mag[tested], grow[tested], abs_tol[rows], rel_tol
            )
            fails = bad | starved[rows]
            done = ~fails & (err_sum <= target)
            ends = fails | done | (n_evals[rows] + 30 > max_evals)
            splits[tested] = ~ends
            # fsum is correctly rounded, so the sums do not depend on panel order
            finished = rows[ends]
            value[finished], error[finished] = total[ends], err_sum[ends]
            for k in np.flatnonzero(ends & ~done).tolist():
                r, v, e = int(rows[k]), float(total[k]), float(err_sum[k])
                if bad[k]:
                    # no split makes a NaN panel finite again
                    msg = _NOT_FINITE % (v, e)
                elif starved[r]:
                    msg = "quadrature needs more than %d evaluations for %.4g initial panels" % (max_evals, wanted[r])
                else:
                    msg = "quadrature needs more than %d evaluations (err %.3e > target %.3e)" % (
                        max_evals, e, target[k],
                    )
                failed[r] = ToleranceError(msg, value=v, err=e)
        keep = np.repeat(splits, size)
        live, size, worst = live[splits], size[splits], worst[splits]
        row, lo, hi, val, err = row[keep], lo[keep], hi[keep], val[keep], err[keep]
    return value, error, n_evals, failed


def adaptive_gk(f, a, b, rel_tol=1e-10, abs_tol=1e-13, max_evals=100_000, min_panels=4):
    """Adaptive integration of a vectorized integrand f(nodes) on [a, b].

    The one-row case of gk_rows.  Returns (value, error_estimate, n_evals).
    Raises ToleranceError (with the best estimate attached) if max_evals is
    exhausted first.
    """
    if not b > a:
        raise ValueError("need b > a")
    value, err, n_evals, failed = gk_rows(lambda rows, x: f(x), [a], [b], rel_tol, [abs_tol], max_evals, [min_panels])
    if failed:
        raise failed[0]
    return float(value[0]), float(err[0]), int(n_evals[0])


def composite_gk_nodes(a, b, n_panels):
    """Fixed composite Kronrod grid: nodes plus K15 and embedded G7 weights."""
    edges = np.linspace(a, b, n_panels + 1)
    return tuple(arr.ravel() for arr in gk_nodes_weights(edges[:-1], edges[1:]))
