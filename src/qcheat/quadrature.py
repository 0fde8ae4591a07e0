"""Row-batched adaptive Gauss-Kronrod 7/15 quadrature with deterministic panel sums.

`gk_rows` integrates many independent rows at once.  Each row keeps the
classic adaptive policy on its own: it starts from min_panels equal panels,
always splits the panel with the largest error estimate (ties broken by
creation index), and stops once the compensated (fsum) sum of the panel
errors is below max(abs_tol, rel_tol |value|, the round-off floor of the
panel magnitudes), or fails with ToleranceError when the next split would
exceed max_evals.  Only the work is batched: each refinement round evaluates
every pending panel of every active row in one integrand call, first all
initial panels, then both halves of each row's split.  The integrand takes a
(rows, nodes) pair with nodes of shape (P, 15), and the panel sums are
row-wise reductions, so a row's result is the same bits whatever rows share
its batch and in whatever order.  `adaptive_gk` is the one-row entry point.
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

# most panels per integrand call; a row with very many initial panels (a far,
# fast-oscillating kernel row) is evaluated in slices of this size
_PANEL_CHUNK = 4096


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
    x, wk, wg = gk_nodes_weights(lo, hi)
    y = f(rows, x)
    # row-wise reductions: a panel's sums do not depend on its place in the batch
    resk = np.einsum("ij,ij->i", wk, y)
    resg = np.einsum("ij,ij->i", wg, y)
    mean = (resk * 0.5) / (0.5 * (hi - lo))
    asc = np.einsum("ij,ij->i", wk, np.abs(y - mean[:, None]))
    diff = np.abs(resk - resg)
    positive = asc > 0.0
    scaled = np.minimum(1.0, 200.0 * diff / np.where(positive, asc, 1.0))
    err = np.where(positive, asc * scaled**1.5, diff)
    return resk, np.maximum(err, np.abs(resk) * 1e-15)


def gk_rows(f, a, b, rel_tol, abs_tol, max_evals, min_panels):
    """Adaptive integrals of f over [a_r, b_r], one per row r, refined together.

    f(rows, nodes) gets row indices (P,) and nodes (P, 15) and returns the
    integrand values (P, 15).  a, b, abs_tol and min_panels are per-row
    sequences; rel_tol and max_evals are shared.  Returns one entry per row:
    (value, error_estimate, n_evals), or a ToleranceError carrying the best
    estimate when max_evals runs out first.
    """
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    counts = np.asarray(min_panels, dtype=int).tolist()
    n_rows = len(b)
    # per row: panel ends, values and errors; pending panels: row, slot, ends
    lo, hi, val, err, n_evals = [], [], [], [], []
    p_row, p_slot, p_lo, p_hi = [], [], [], []
    for r, (ar, br, p) in enumerate(zip(a, b, counts)):
        # the edges of np.linspace(ar, br, p + 1), same arithmetic
        step = (br - ar) / p
        edges = [k * step + ar for k in range(p)] + [br]
        lo.append(edges[:-1])
        hi.append(edges[1:])
        val.append([0.0] * p)
        err.append([0.0] * p)
        n_evals.append(15 * p)
        p_row += [r] * p
        p_slot += range(p)
        p_lo += lo[r]
        p_hi += hi[r]
    out = [None] * n_rows
    active = list(range(n_rows))
    while active:
        for c in range(0, len(p_row), _PANEL_CHUNK):
            chunk = slice(c, c + _PANEL_CHUNK)
            rows = p_row[chunk]
            resk, rese = _gk15(f, np.array(rows), np.array(p_lo[chunk]), np.array(p_hi[chunk]))
            for r, s, v, e in zip(rows, p_slot[chunk], resk.tolist(), rese.tolist()):
                val[r][s] = v
                err[r][s] = e
        splitting = []
        p_row, p_slot, p_lo, p_hi = [], [], [], []
        for r in active:
            vs, es = val[r], err[r]
            total = math.fsum(vs)
            err_sum = math.fsum(es)
            # panel error estimates cannot resolve below the round-off floor of
            # the magnitude sum; demanding more would loop forever
            noise_floor = 1e-13 * math.fsum(map(abs, vs))
            target = max(abs_tol[r], rel_tol * abs(total), noise_floor)
            if err_sum <= target:
                # fsum is correctly rounded, so the sums do not depend on panel order
                out[r] = (total, err_sum, n_evals[r])
                continue
            if n_evals[r] + 30 > max_evals:
                out[r] = ToleranceError(
                    "quadrature needs more than %d evaluations (err %.3e > target %.3e)"
                    % (max_evals, err_sum, target),
                    value=total,
                    err=err_sum,
                )
                continue
            worst = es.index(max(es))
            left, right = lo[r][worst], hi[r][worst]
            mid = 0.5 * (left + right)
            hi[r][worst] = mid
            lo[r].append(mid)
            hi[r].append(right)
            vs.append(0.0)
            es.append(0.0)
            n_evals[r] += 30
            splitting.append(r)
            p_row += [r, r]
            p_slot += [worst, len(vs) - 1]
            p_lo += [left, mid]
            p_hi += [mid, right]
        active = splitting
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
