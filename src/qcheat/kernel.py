"""Heat kernel of the intrinsic sublaplacian on the quaternionic Heisenberg group.

Evaluates p(t, 0, (x, z)) for the semigroup exp(t sum X_a^2) with respect to the
nilpotentized Popp measure (haar_factor times Lebesgue), via the explicit
step-two integral representation reduced to one radial dimension:

    p(t, 0, (x, z)) = prefac(t) * Integral_{R^3} exp(-i<tau,z>/(2t)
                      - a(|2 tau|) |x|^2 / (4t)) W(tau) d tau,

with a(rho) = rho coth rho, W(tau) = (|2 tau|/sinh|2 tau|)^{2n} and
prefac(t) = 8 (16n)^{3/2} / (4 pi t)^{2n+3}.  The classical display of this
formula uses exp(-phi(tau, h)/t) with phi = i<tau,z> + a |x|^2 / 2, which is
this kernel precomposed with the dilation (x, z) -> (sqrt2 x, 2 z); diagonal
quantities (homogeneity, c0) are identical, but only the present scaling is a
probability density with E[x_a^2] = 2t and the semigroup property, which the
moment and simulation layers rely on.  action_function_matrix evaluates the
displayed phi itself, as an independent reference form.

Angular integration is analytic (spherical Bessel factors up to order two,
covering derivative queries of weighted order <= 4); the remaining radial
integral has an exponentially decaying integrand and is handled by adaptive
Gauss-Kronrod panels with an explicit incomplete-gamma tail bound.

Every pointwise query of p(t, 0, .) or of a derivative of it goes through
one row entry, _query_rows: a row is (t, x, z), the real coefficients of all
rows on the derivative's shared list of integrand terms are worked out as
arrays in one pass, and blocks of up to _ROW_BLOCK rows go to _kernel_rows
and quadrature.gk_rows, which refines them in groups bounded by their
panels.  The same entry serves the CLI `kernel` rows (batch_evaluate),
single queries (heat_kernel_point, a one-row call) and the Monte Carlo
checks of the mc layer, which send all samples of a time branch and Leibniz
term in one call.  A row's value and error are the same bits whichever rows
share its call.  Other base points follow from the group
law, p(t, h, h') = p(t, 0, h^{-1} h').  The entries take a quaternionic spec
only, and a query one relative tolerance tol, with the absolute floor tol * 1e-3.

The mass and the marginal moments (radial_expectation) evaluate no pointwise
value of p.  They integrate the radial form itself at t = 1, where x is
Gaussian given rho and integrates in closed form, and |z| and rho take fixed
Kronrod rules; the dilation (x, z) -> (sqrt(t) x, t z) carries them to any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import ToleranceError, composite_gk_nodes, gk_rows

__all__ = [
    "KernelValue",
    "BROWNIAN_VARIANCE_FACTOR",
    "action_function_matrix",
    "volume_element_matrix",
    "heat_kernel_point",
    "kernel_marginal_moments",
    "normalization_integral",
    "batch_evaluate",
]

# e^{-t Delta_sub} with Delta_sub = -sum X^2 drives Brownian motion of
# variance 2t per horizontal coordinate; shared with the simulation layer.
BROWNIAN_VARIANCE_FACTOR = 2.0

# most rows per _kernel_rows call in _query_rows: bounds the truncation
# arrays, which grow with the rows of a call (gk_rows bounds its own panels)
_ROW_BLOCK = 512

# s-nodes per block in _unit_time_moments; bounds its (rho, s) arrays
_NODE_BLOCK = 64

# integrand evaluations allowed per kernel row
_MAX_EVALS = 400_000

_OUT_OF_RANGE = "kernel value or error bound is out of floating-point range"

# the plain kernel's integrand terms: a(rho)^0 times the tau-monomial 1
_PLAIN = [(0, (0, 0, 0))]


def _require_quaternionic(spec):
    """ValueError unless spec is quaternionic, the one group the kernel and the mc checks evaluate."""
    if not spec.quaternionic:
        msg = "the kernel needs a quaternionic spec (r = 3, m = 4n, the quaternion relations), got m = %d, r = %d"
        raise ValueError(msg % (spec.m, spec.r))


def _check_point(t, coords):
    """ValueError unless t > 0 and t and every coordinate are finite."""
    if not t > 0:
        raise ValueError("time must be positive")
    if not all(map(math.isfinite, (t, *coords))):
        raise ValueError("time and coordinates must be finite")


@dataclass(frozen=True)
class KernelValue:
    value: float
    err_estimate: float
    n_evals: int = 0


def _series_where(x, small, series, direct):
    """series(x) at the entries where small is true, direct(x) at the others.

    direct runs on every entry, under np.errstate: at the small entries it
    may divide 0 by 0 or overflow, and those values are overwritten.  series
    runs on the small entries only, which the callers bound in size.  Both
    forms are built from elementwise ufuncs, so each entry gets the same
    expression, and the same bits, as np.where(small, series(x),
    direct(safe)) with safe = 1 at the small entries and x at the others.
    x may be 0-d; small is x's mask, an array or a numpy bool.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(direct(x))
    if small.any():
        out[small] = series(x[small])
    return out


def _rho_coth(rho):
    rho = np.asarray(rho, dtype=float)
    return _series_where(rho, rho < 1e-4, lambda r: 1.0 + r * r / 3.0, lambda r: r / np.tanh(r))


def _rho_over_sinh_pow(rho, two_n):
    """(rho / sinh rho)^two_n, the radial weight of the kernel, c0 and Cn."""
    rho = np.asarray(rho, dtype=float)
    ratio = _series_where(rho, rho < 1e-8, lambda r: 1.0 - r * r / 6.0, lambda r: r / np.sinh(r))
    return ratio**two_n


def _exp_tail(const, mpow, rate, R):
    """const * integral_R^inf rho^mpow exp(-rate rho) drho, elementwise; mpow an integer >= 0.

    At integer order the upper incomplete gamma function is a finite sum:
    the integral is sum_k mpow!/k! R^k rate^(k - mpow - 1) e^(-rate R).  The
    terms are summed from their logarithms, so no power overflows.
    """
    k = np.arange(mpow + 1)
    log_fact = np.cumsum(np.log(np.maximum(k, 1)))  # log k!
    rate = np.asarray(rate, dtype=float)[..., None]
    x = rate * np.asarray(R, dtype=float)[..., None]
    log_terms = log_fact[-1] - log_fact + k * np.log(x) - x - (mpow + 1) * np.log(rate)
    return const * np.exp(log_terms).sum(axis=-1)


def _truncation_radius(bound, R0, tol, R_max):
    """First R of R0, R0 + 4, ... with bound(R) <= tol, else the first R >= R_max: (R, bound(R)).

    bound maps radii of shape (K, 1) to tails of shape (K, N), one column per
    row (N = 1 for a scalar bound); R and the tail come back with shape (N,).
    The radii are tried eight at a time, so a typical row costs one call.
    """
    # R0 + 4 + 4 + ..., summed step by step, up to the first radius >= R_max
    steps = np.full(max(0, int((R_max - R0) // 4.0)) + 3, 4.0)
    steps[0] = R0
    radii = np.cumsum(steps)
    radii = radii[: int(np.argmax(radii >= R_max)) + 1]
    tails, open_rows = [], True
    for c in range(0, len(radii), 8):
        tails.append(np.asarray(bound(radii[c : c + 8, None]), dtype=float))
        open_rows = open_rows & (tails[-1] > tol).all(axis=0)
        if not np.any(open_rows):
            break
    tails = np.concatenate(tails)
    stop = ~(tails > tol)
    stop[-1] = True  # the first radius >= R_max ends the walk; rows that stopped earlier keep that
    first = stop.argmax(axis=0)
    return radii[first], tails[first, np.arange(tails.shape[1])]


def _j1_direct(k):
    return np.sin(k) / (k * k) - np.cos(k) / k


def _j0(k):
    def series(k):
        k2 = k * k
        return 1.0 - k2 / 6.0 + k2 * k2 / 120.0

    # sin(k) / k loses no digits at small k; the series only covers k near 0,
    # where its dropped k^6 / 5040 is below 1e-27
    return _series_where(k, np.abs(k) < 1e-4, series, lambda k: np.sin(k) / k)


def _j1(k):
    def series(k):
        k2 = k * k
        return k / 3.0 - k * k2 / 30.0 + k * k2 * k2 / 840.0

    return _series_where(k, np.abs(k) < 0.05, series, _j1_direct)


def _j1_over_k(k):
    def series(k):
        k2 = k * k
        return 1.0 / 3.0 - k2 / 30.0 + k2 * k2 / 840.0

    return _series_where(k, np.abs(k) < 0.05, series, lambda k: _j1_direct(k) / k)


def _j2(k):
    def series(k):
        k2 = k * k
        return k2 / 15.0 - k2 * k2 / 210.0

    def direct(k):
        return (3.0 / (k * k) - 1.0) * np.sin(k) / k - 3.0 * np.cos(k) / (k * k)

    return _series_where(k, np.abs(k) < 0.05, series, direct)


def _omega_matrix(spec, tau):
    J = spec.J_float()
    return 2.0 * np.einsum("i,iab->ab", np.asarray(tau, dtype=float), J)


def action_function_matrix(spec, tau, x, z):
    """phi(tau, (x, z)) = i <tau, z> + <x, (i Omega) coth(i Omega) x> / 2 for any step-two spec.

    On the quaternionic spec this is i <tau, z> + a(|2 tau|) |x|^2 / 2, the
    action the kernel integrates with _rho_coth.
    """
    x = np.asarray(x, dtype=float)
    om = _omega_matrix(spec, tau)
    herm = 1j * om
    vals, vecs = np.linalg.eigh(herm)
    f = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.tanh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    mat = (vecs * f) @ vecs.conj().T
    quad = np.real(np.dot(x, mat @ x))
    return 1j * float(np.dot(np.asarray(tau, dtype=float), z)) + 0.5 * quad


def volume_element_matrix(spec, tau):
    """W(tau) = det^{1/2}(i Omega / sinh(i Omega)) for any step-two spec.

    On the quaternionic spec this is (|2 tau| / sinh |2 tau|)^{2n}, the
    weight the kernel integrates with _rho_over_sinh_pow.
    """
    om = _omega_matrix(spec, tau)
    vals = np.linalg.eigvalsh(1j * om)
    ratio = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.sinh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    return float(np.sqrt(np.prod(ratio)))


def _prefactor(spec, t):
    n = spec.n
    # a power that leaves the double range gives inf or 0 here without a
    # warning; _kernel_rows fails those rows
    with np.errstate(divide="ignore", over="ignore"):
        return 8.0 * (16.0 * n) ** 1.5 / (4.0 * math.pi * t) ** (2 * n + 3)


def _weighted_order(spec, deriv):
    if not deriv:
        return 0
    if len(deriv) != spec.dim:
        raise ValueError("derivative multi-index must have length %d" % spec.dim)
    if any(d < 0 for d in deriv):
        raise ValueError("derivative orders must be nonnegative")
    return sum(deriv[: spec.m]) + 2 * sum(deriv[spec.m :])


def _derivative_terms(spec, deriv, t):
    """Expand the derivative multi-index into integrand terms at the row times t (N,).

    A term is ((px, na, lam) -> real coeff (N,)): monomial exponents in the
    target x, power of a(rho), and tau-monomial exponents from z-derivatives.
    An x-derivative brings -1/2t or the monomial's exponent; a z-derivative
    brings -i/2t, of which the coefficient keeps -1/2t and _make_integrand
    the factor i^|lam|.
    """
    m = spec.m
    terms = {((0,) * m, 0, (0, 0, 0)): np.ones_like(t)}
    if not deriv:
        return terms
    w = -1.0 / (2.0 * t)
    for alpha in range(m):
        for _ in range(deriv[alpha]):
            new = {}
            for (px, na, lam), c in terms.items():
                e = list(px)
                e[alpha] += 1
                key = (tuple(e), na + 1, lam)
                new[key] = new.get(key, 0.0) + c * w
                if px[alpha] > 0:
                    e2 = list(px)
                    e2[alpha] -= 1
                    key2 = (tuple(e2), na, lam)
                    new[key2] = new.get(key2, 0.0) + c * px[alpha]
            terms = new
    for i in range(3):
        for _ in range(deriv[m + i]):
            new = {}
            for (px, na, lam), c in terms.items():
                ll = list(lam)
                ll[i] += 1
                key = (px, na, tuple(ll))
                new[key] = new.get(key, 0.0) + c * w
            terms = new
    return terms


def _angular(lam, k, uvec, cache):
    """Real factor A of the integral of omega^lam exp(-i k <omega, u>) over the unit sphere.

    The integral is A for even |lam| and -i A for odd |lam|.  uvec holds one
    unit vector u per row of k.
    """
    if lam in cache:
        return cache[lam]
    total = sum(lam)
    if total == 0:
        out = 4.0 * math.pi * _j0(k)
    elif total == 1:
        out = 4.0 * math.pi * _j1(k) * uvec[:, lam.index(1), None]
    else:
        i, j = [i for i in range(3) for _ in range(lam[i])]
        ui, uj = uvec[:, i, None], uvec[:, j, None]
        if i == j:
            out = 4.0 * math.pi * (_j1_over_k(k) - _j2(k) * ui * ui)
        else:
            out = -4.0 * math.pi * _j2(k) * ui * uj
    cache[lam] = out
    return out


def _tail_bound(spec, u, keys, coeffs):
    """R -> incomplete-gamma bound on the dropped radial tail [R, inf), per row.

    coeffs[r, j] is row r's real coefficient of keys[j] (see _make_integrand).
    """
    n = spec.n
    rate = 2 * n + u
    # for rho >= 3: rho/sinh rho <= 2.02 rho e^-rho, a(rho) <= 1.02 rho and
    # |angular| <= 4 pi, so with the rho^2/8 factor a term is at most
    # |coeff| (pi/2) 2^-|lam| 1.02^na 2.02^2n rho^mpow e^{-rate rho}; pi keeps a factor 2 spare
    consts = [
        (np.abs(coeffs[:, j]) * (math.pi * 0.5 ** sum(lam) * 1.02**na * 2.02 ** (2 * n)), 2 + 2 * n + na + sum(lam))
        for j, (na, lam) in enumerate(keys)
    ]
    return lambda R: sum(_exp_tail(const, mpow, rate, R) for const, mpow in consts)


def _make_integrand(spec, u, zc, uvec, keys, coeffs):
    """Radial integrand f(rows, rho) of the kernel rows, rho of shape (P, 15).

    Row r has u_r = |x|^2 / 4t, zc_r = |z| / 4t, the unit vector uvec_r of z,
    and the real coefficient coeffs[r, j] of each shared term
    keys[j] = (power of a(rho), tau-monomial exponents lam).
    """
    two_n = 2 * spec.n
    # the term's complex coefficient is i^|lam| coeffs[r, j] and its angular
    # integral A or -i A (see _angular), so the real part of their product
    # is (-1)^(|lam| // 2) coeffs[r, j] A
    signs = np.array([(-1.0) ** (sum(lam) // 2) for _, lam in keys])
    wts = coeffs * signs

    def f(rows, rho):
        a = _rho_coth(rho)
        base = (rho * rho / 8.0) * _rho_over_sinh_pow(rho, two_n) * np.exp(-a * u[rows, None])
        k = zc[rows, None] * rho
        uv, w = uvec[rows], wts[rows]
        cache = {}
        acc = 0.0
        for j, (na, lam) in enumerate(keys):
            term = w[:, j, None] * _angular(lam, k, uv, cache)
            if na:
                term = term * a**na
            slam = sum(lam)
            if slam:
                term = term * (0.5 * rho) ** slam
            acc = acc + term
        return base * acc

    return f


def _auto_truncation(spec, u, keys, coeffs, tol):
    """(R, tail bound at R) per row for the kernel's radial integral."""
    return _truncation_radius(_tail_bound(spec, u, keys, coeffs), 6.0 + 2.0 / spec.n, tol, 400.0)


def _kernel_rows(spec, t, x, z, keys, coeffs, tol):
    """KernelValue, or ToleranceError, of p(t_r, 0, (x_r, z_r)) for each row r.

    t (N,), x (N, m) and z (N, 3) are float arrays; coeffs[r, j] is row r's
    coefficient of the shared term keys[j] (see _make_integrand).  tol is
    the relative tolerance and abs_tol = tol * 1e-3 the absolute floor.
    """
    abs_tol = tol * 1e-3
    x = np.ascontiguousarray(x, dtype=float)
    z = np.ascontiguousarray(z, dtype=float)
    znorm = np.sqrt(np.einsum("ij,ij->i", z, z))
    # a row whose |x|^2 / 4t, |z|^2 or |z| / 4t overflows is integrated at
    # x = z = 0, then failed as out of range
    with np.errstate(over="ignore"):
        u = np.einsum("ij,ij->i", x, x) / (4.0 * t)
        zc = znorm / (4.0 * t)
    lost = ~(np.isfinite(u) & np.isfinite(zc))
    u[lost] = 0.0
    zc[lost] = 0.0
    uvec = z / np.where(znorm > 0.0, znorm, 1.0)[:, None]
    R, tail = _auto_truncation(spec, u, keys, coeffs, abs_tol / 10.0)
    n_osc = R * zc / (2.0 * math.pi)
    # a float count, which gk_rows caps at its evaluation budget
    min_panels = np.maximum(4, np.maximum(np.ceil(R / 5.0), np.ceil(1.5 * n_osc)))
    pre = _prefactor(spec, t)
    f = _make_integrand(spec, u, zc, uvec, keys, coeffs)
    results = gk_rows(f, np.zeros_like(R), R, tol, abs_tol / np.maximum(pre, 1.0), _MAX_EVALS, min_panels)
    out = []
    for res, p, tl, gone in zip(results, pre.tolist(), tail.tolist(), lost.tolist()):
        if gone:
            out.append(ToleranceError(_OUT_OF_RANGE))
        elif isinstance(res, ToleranceError):
            out.append(ToleranceError(str(res), value=p * res.value, err=p * res.err + p * tl))
        else:
            val, err, n_evals = res
            value, bound = p * val, p * (err + tl)
            if p > 0.0 and math.isfinite(value) and math.isfinite(bound):
                out.append(KernelValue(value, bound, n_evals))
            else:
                out.append(ToleranceError(_OUT_OF_RANGE))
    return out


def _query_rows(spec, t, x, z, derivative, tol):
    """KernelValue, or ToleranceError, of D p(t_r, 0, (x_r, z_r)) for each row r.

    t (N,), x (N, m) and z (N, 3) are float arrays of checked points,
    derivative a checked multi-index D, () for the kernel itself, and tol > 0
    the relative tolerance.  The
    coefficients of all rows are real arrays made in one pass over the
    integrand terms of D: a term's coefficient, with the row's 1/2t factors,
    times its x-monomial at the row, summed per key (power of a(rho),
    tau-monomial) in term order.  A row whose coefficients are all zero is
    exactly 0, or out of range like any row when the kernel's prefactor at
    its t is 0 or not finite, or when a term underflowed to 0 although no
    coordinate of its monomial is 0.  A row with a coefficient that is not
    finite is out of range before any quadrature.  The other rows go
    through _kernel_rows in blocks of up to _ROW_BLOCK rows; a row's result
    is the same bits whichever rows share its block or the call.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    # a 1/2t power or monomial past the double range gives inf or NaN here
    # without a warning; those rows fail below
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _derivative_terms(spec, derivative, t)
        keys = list(dict.fromkeys((na, lam) for _, na, lam in terms))
        coeffs = np.zeros((len(t), len(keys)))
        underflow = np.zeros(len(t), dtype=bool)
        for (px, na, lam), c in terms.items():
            xm = 1.0
            on_zero = np.zeros(len(t), dtype=bool)  # a coordinate of the monomial is 0
            for a, e in enumerate(px):
                if e:
                    xm = xm * x[:, a] ** e
                    on_zero |= x[:, a] == 0.0
            term = c * xm
            underflow |= (term == 0.0) & (c != 0.0) & ~on_zero
            coeffs[:, keys.index((na, lam))] += term
    out = [KernelValue(0.0, 0.0, 0)] * len(t)
    finite = np.isfinite(coeffs).all(axis=1)
    for r in np.flatnonzero(~finite).tolist():
        out[r] = ToleranceError(_OUT_OF_RANGE)
    nonzero = coeffs.any(axis=1)
    live, dead = np.flatnonzero(nonzero & finite), np.flatnonzero(~nonzero)
    for r, p in zip(dead.tolist(), _prefactor(spec, t[dead]).tolist()):
        if underflow[r] or not 0.0 < p < math.inf:
            out[r] = ToleranceError(_OUT_OF_RANGE)
    t, x, z, coeffs = t[live], x[live], z[live], coeffs[live]
    for s in range(0, len(live), _ROW_BLOCK):
        blk = slice(s, s + _ROW_BLOCK)
        results = _kernel_rows(spec, t[blk], x[blk], z[blk], keys, coeffs[blk], tol)
        for r, res in zip(live[blk].tolist(), results):
            out[r] = res
    return out


def heat_kernel_point(spec, t, x, z, derivative=(), tol=1e-9):
    """p(t, 0, (x, z)), or a spatial derivative of it at (x, z).

    spec must be quaternionic; x has its m coordinates and z three.
    Derivatives are taken in the target coordinates up to weighted order 4
    (x counts 1, z counts 2).  Returns a KernelValue with an error estimate
    covering quadrature and truncation, to the relative tolerance tol;
    raises ToleranceError when it is not met or the value or its error
    bound is out of floating-point range.
    """
    _require_quaternionic(spec)
    x = np.array([float(v) for v in x])
    z = np.array([float(v) for v in z])
    if len(x) != spec.m or len(z) != 3:
        raise ValueError("expected %d x and 3 z coordinates, got %d and %d" % (spec.m, len(x), len(z)))
    _check_point(t, [*x, *z])
    derivative = tuple(derivative)
    if _weighted_order(spec, derivative) > 4:
        raise ValueError("derivative queries above weighted order 4 are unsupported")
    (res,) = _query_rows(spec, np.array([float(t)]), x[None], z[None], derivative, tol)
    if isinstance(res, ToleranceError):
        raise res
    return res


def _unit_time_moments(spec):
    """(value, err) of the mass, E[x_a^2] and E[z_i^2] of p(1, 0, .) d(haar), from the kernel's rho-form.

    At t = 1, in the radial form of the module docstring (rho = |2 tau|),
    the integrand is Gaussian in x given rho:
    integral exp(-a(rho) |x|^2 / 4) dx = (4 pi / a)^{2n} and
    E[x_a^2 | rho] = 2 / a.  So with s = |z| each moment is

        haar prefac(1) int_0^s_max 4 pi s^2 w(s) ds
            int_0^R rho^2/8 W(rho) (4 pi / a)^{2n} v(rho) 4 pi j0(s rho / 4) drho,

    with (w, v) = (1, 1), (1, 2/a) and (s^2/3, 1).  s takes the K15 rule on
    26 panels of [0, 12 sqrt(32 n) + 40]; the z-marginal decays like
    e^{-pi s / 8}, and at n = 1 the part past s_max is 6e-16 of the mass
    and 8e-14 of E[z_i^2].  rho takes the K15 rule on [0, R], R from the
    plain kernel's tail bound at tolerance 1e-14, with nr panels (one per
    two oscillations of j0 at s_max, at least 16) and with 2 nr; the finer
    value is reported.  Its error sums the nr-vs-2nr difference, the
    s-rule's K15 - G7 difference, the rho-tail bound past R propagated
    through x and s (on the tail a >= rho >= R, so (4 pi / a)^{2n} <=
    (4 pi / R)^{2n} and 2/a <= 2/R) and a floor of 1e-14 |value|.  s-nodes
    go _NODE_BLOCK at a time, which bounds the (rho, s) arrays.
    """
    two_n = 2 * spec.n
    R, tail = _auto_truncation(spec, np.zeros(1), _PLAIN, np.ones((1, 1)), 1e-14)
    R, tail = float(R[0]), float(tail[0])
    s_max = 12.0 * math.sqrt(32.0 * spec.n) + 40.0
    s, wk, wg = composite_gk_nodes(0.0, s_max, 26)
    # haar prefac(1) 4 pi s^2 w(s), one row per moment
    shell = spec.haar_factor * _prefactor(spec, np.float64(1.0)) * 4.0 * math.pi * s * s
    sw = np.stack([shell, shell, shell * s * s / 3.0])

    def moments(panels):
        """(K15, G7) s-rule sums of the three moments with the rho-rule on panels."""
        rho, wr, _ = composite_gk_nodes(0.0, R, panels)
        a = _rho_coth(rho)
        g = wr * (rho * rho / 8.0) * _rho_over_sinh_pow(rho, two_n) * (4.0 * math.pi / a) ** two_n * 4.0 * math.pi
        G = np.stack([g, g * 2.0 / a])
        F = np.empty((2, len(s)))
        for b in range(0, len(s), _NODE_BLOCK):
            F[:, b : b + _NODE_BLOCK] = G @ _j0(np.outer(rho, s[b : b + _NODE_BLOCK] / 4.0))
        F = sw * F[[0, 1, 0]]
        return F @ wk, F @ wg

    nr = max(16, int(math.ceil(R * s_max / 4.0 / (2.0 * math.pi) / 2.0)))
    # past n = 138 the prefactor is 0 and then (4 pi / a)^{2n} overflows;
    # radial_expectation fails the moments that leave the double range
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, _ = moments(nr)
        fine, fine_g = moments(2 * nr)
        rho_tail = tail * (4.0 * math.pi / R) ** two_n * np.array([1.0, 2.0 / R, 1.0])
        err = np.abs(fine - coarse) + np.abs(fine - fine_g) + rho_tail * (np.abs(wk) * sw).sum(axis=1)
    err += 1e-14 * np.abs(fine)
    return list(zip(fine.tolist(), err.tolist()))


def radial_expectation(spec, t):
    """Mass, E[x_a^2] and E[z_i^2] of p(t, 0, .) against the Haar measure, each (value, err).

    The table at t = 1 (_unit_time_moments) is scaled by the dilation
    (x, z) -> (sqrt(t) x, t z): the mass stays, E[x_a^2] takes a factor t
    and E[z_i^2] a factor t^2, exactly.  For reference the flat x-marginal
    gives E[x_a^2] = 2t and the vertical variance is 32 n t^2.  ValueError
    unless spec is quaternionic and t positive and finite; OverflowError,
    naming the moment and t, when a scaled value or error is not finite or
    below the smallest normal double.
    """
    _require_quaternionic(spec)
    _check_point(t, ())
    t, tiny = float(t), np.finfo(float).tiny
    out = []
    for name, scale, (val, err) in zip(("mass", "E[x_a^2]", "E[z_i^2]"), (1.0, t, t * t), _unit_time_moments(spec)):
        # Python floats: a product past the double range is inf or 0, without a warning
        val, err = val * scale, err * scale
        if not (tiny <= abs(val) < math.inf and tiny <= err < math.inf):
            raise OverflowError(
                "%s of p(t, 0, .) at t = %r is out of floating-point range: %r +- %r" % (name, t, val, err)
            )
        out.append((val, err))
    return out


def normalization_integral(spec, t):
    """Total mass of p(t, 0, .) against the Haar measure (should be 1)."""
    return radial_expectation(spec, t)[0]


def kernel_marginal_moments(spec, t):
    """Mass and diagonal second marginal moments of p(t, 0, .) d(haar), each (value, err).

    Odd moments vanish exactly by parity; the mass and the diagonal second
    moments are the three entries of radial_expectation.
    """
    mass, ex2, ez2 = radial_expectation(spec, t)
    return {"mass": mass, "Exx_diag": ex2, "Ezz_diag": ez2}


def batch_evaluate(spec, rows, tol=1e-9):
    """Evaluate plain kernel rows (t, x_1..x_m, z_1..z_3) of a quaternionic spec; never raises per row.

    Each row is checked on its own: exactly 1 + m + 3 finite values, t > 0.
    The valid rows go through _query_rows together, and each gets the same
    bits as heat_kernel_point at the same tol.  Returns one dict per row with
    value/err, or with an error message and its kind: "input" for a row that
    failed the check, "numeric" for a row that missed the tolerance or whose
    value or error bound is out of floating-point range.
    """
    _require_quaternionic(spec)
    m = spec.m
    out = [None] * len(rows)
    valid, points = [], []
    for i, row in enumerate(rows):
        try:
            vals = [float(v) for v in row]
            if len(vals) != m + 4:
                raise ValueError("expected %d coordinates" % (m + 3))
            _check_point(vals[0], vals[1:])
        except ValueError as exc:
            out[i] = {"ok": False, "kind": "input", "error": str(exc)}
            continue
        valid.append(i)
        points.append(vals)
    pts = np.array(points).reshape(-1, m + 4)
    results = _query_rows(spec, pts[:, 0], pts[:, 1 : m + 1], pts[:, m + 1 :], (), tol)
    for i, res in zip(valid, results):
        if isinstance(res, ToleranceError):
            out[i] = {"ok": False, "kind": "numeric", "error": str(res)}
        else:
            out[i] = {"ok": True, "value": res.value, "err": res.err_estimate}
    return out
