"""Heat kernel of the intrinsic sublaplacian on the quaternionic Heisenberg group.

Evaluates p(t, h, h') for the semigroup exp(t sum X_a^2) with respect to the
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
moment and simulation layers rely on.  See action_function for the displayed
phi itself.

Angular integration is analytic (spherical Bessel factors up to order two,
covering derivative queries of weighted order <= 4); the remaining radial
integral has an exponentially decaying integrand and is handled by adaptive
Gauss-Kronrod panels with an explicit incomplete-gamma tail bound.

Every pointwise query goes through one row-batched path, _kernel_rows: a row
is (t, x, z) plus its coefficients on a shared list of integrand terms, and
all rows are refined together by quadrature.gk_rows.  batch_evaluate (CLI
`kernel`) sends its plain rows through in blocks of _ROW_BLOCK rows;
heat_kernel (derivatives, off-identity bases) is a one-row call.  A row's
value and error are the same bits whichever rows share its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupPoint, group_inverse, group_mul, identity_point
from .quadrature import ToleranceError, composite_gk_nodes, gk_rows

__all__ = [
    "KernelQuery",
    "QuadratureConfig",
    "KernelValue",
    "BROWNIAN_VARIANCE_FACTOR",
    "action_function",
    "action_function_matrix",
    "volume_element",
    "volume_element_matrix",
    "heat_kernel",
    "heat_kernel_point",
    "kernel_marginal_moments",
    "normalization_integral",
    "batch_evaluate",
]

# e^{-t Delta_sub} with Delta_sub = -sum X^2 drives Brownian motion of
# variance 2t per horizontal coordinate; shared with the simulation layer.
BROWNIAN_VARIANCE_FACTOR = 2.0

# rows per quadrature batch in batch_evaluate; bounds the node arrays
_ROW_BLOCK = 64

# the plain kernel's integrand terms: a(rho)^0 times the tau-monomial 1
_PLAIN = [(0, (0, 0, 0))]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_evals: int = 400_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_evals < 15:
            raise ValueError("max_evals must be at least 15")


@dataclass(frozen=True)
class KernelQuery:
    t: float
    base: GroupPoint | None
    target: GroupPoint
    derivative: tuple = ()

    def __post_init__(self):
        base = self.base.x + self.base.z if self.base is not None else ()
        _check_point(self.t, self.target.x + self.target.z + base)


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


def _rho_coth(rho):
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-4
    safe = np.where(small, 1.0, rho)
    out = np.where(small, 1.0 + rho * rho / 3.0, safe / np.tanh(safe))
    return out


def _rho_over_sinh_pow(rho, two_n):
    """(rho / sinh rho)^two_n, the radial weight of the kernel, c0 and Cn."""
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-8
    safe = np.where(small, 1.0, rho)
    ratio = np.where(small, 1.0 - rho * rho / 6.0, safe / np.sinh(safe))
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


def _j0(k):
    small = np.abs(k) < 0.05
    safe = np.where(small, 1.0, k)
    k2 = k * k
    return np.where(small, 1.0 - k2 / 6.0 + k2 * k2 / 120.0, np.sin(safe) / safe)


def _j1(k):
    small = np.abs(k) < 0.05
    safe = np.where(small, 1.0, k)
    k2 = k * k
    series = k / 3.0 - k * k2 / 30.0 + k * k2 * k2 / 840.0
    return np.where(small, series, np.sin(safe) / (safe * safe) - np.cos(safe) / safe)


def _j1_over_k(k):
    small = np.abs(k) < 0.05
    safe = np.where(small, 1.0, k)
    k2 = k * k
    series = 1.0 / 3.0 - k2 / 30.0 + k2 * k2 / 840.0
    return np.where(small, series, _j1(safe) / safe)


def _j2(k):
    small = np.abs(k) < 0.05
    safe = np.where(small, 1.0, k)
    k2 = k * k
    series = k2 / 15.0 - k2 * k2 / 210.0
    direct = (3.0 / (safe * safe) - 1.0) * np.sin(safe) / safe - 3.0 * np.cos(safe) / (
        safe * safe
    )
    return np.where(small, series, direct)


def action_function(spec, tau, h):
    """Action phi(tau, h) = i <tau, z> + (|2tau| coth |2tau|) |x|^2 / 2.

    The singularity at tau = 0 is removable (rho coth rho -> 1).
    """
    x, z = h.as_floats() if isinstance(h, GroupPoint) else h
    tau = np.asarray(tau, dtype=float)
    rho = 2.0 * float(np.linalg.norm(tau))
    a = float(_rho_coth(rho))
    return 1j * float(np.dot(tau, z)) + 0.5 * a * float(np.dot(x, x))


def volume_element(spec, tau):
    """Volume element W(tau) = (|2 tau| / sinh |2 tau|)^{2n}; W(0) = 1."""
    tau = np.asarray(tau, dtype=float)
    rho = 2.0 * float(np.linalg.norm(tau))
    return float(_rho_over_sinh_pow(rho, 2 * spec.n))


def _omega_matrix(spec, tau):
    J = spec.J_float()
    return 2.0 * np.einsum("i,iab->ab", np.asarray(tau, dtype=float), J)


def action_function_matrix(spec, tau, h):
    """phi via the matrix function (i Omega) coth(i Omega); works for any
    step-two spec and must agree with action_function on quaternionic ones."""
    x, z = h.as_floats() if isinstance(h, GroupPoint) else h
    om = _omega_matrix(spec, tau)
    herm = 1j * om
    vals, vecs = np.linalg.eigh(herm)
    f = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.tanh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    mat = (vecs * f) @ vecs.conj().T
    quad = np.real(np.dot(x, mat @ x))
    return 1j * float(np.dot(np.asarray(tau, dtype=float), z)) + 0.5 * quad


def volume_element_matrix(spec, tau):
    """W via det^{1/2}(i Omega / sinh(i Omega)) for any step-two spec."""
    om = _omega_matrix(spec, tau)
    vals = np.linalg.eigvalsh(1j * om)
    ratio = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.sinh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    return float(np.sqrt(np.prod(ratio)))


def _prefactor(spec, t):
    n = spec.n
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
    """Expand the derivative multi-index into integrand terms.

    A term is ((px, na, lam) -> complex coeff): monomial exponents in the
    target x, power of a(rho), and tau-monomial exponents from z-derivatives.
    """
    m = spec.m
    terms = {((0,) * m, 0, (0, 0, 0)): 1.0 + 0.0j}
    if not deriv:
        return terms
    for alpha in range(m):
        for _ in range(deriv[alpha]):
            new = {}
            for (px, na, lam), c in terms.items():
                e = list(px)
                e[alpha] += 1
                key = (tuple(e), na + 1, lam)
                new[key] = new.get(key, 0.0j) + c * (-1.0 / (2.0 * t))
                if px[alpha] > 0:
                    e2 = list(px)
                    e2[alpha] -= 1
                    key2 = (tuple(e2), na, lam)
                    new[key2] = new.get(key2, 0.0j) + c * px[alpha]
            terms = new
    for i in range(3):
        for _ in range(deriv[m + i]):
            new = {}
            for (px, na, lam), c in terms.items():
                ll = list(lam)
                ll[i] += 1
                key = (px, na, tuple(ll))
                new[key] = new.get(key, 0.0j) + c * (-1j / (2.0 * t))
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


def _collapse_terms(terms, x):
    """Fold the fixed target point into the coefficients: (na, lam) -> coeff."""
    out = {}
    for (px, na, lam), c in terms.items():
        xm = 1.0
        for a, e in enumerate(px):
            if e:
                xm *= x[a] ** e
        if xm == 0.0 and any(px):
            continue
        key = (na, lam)
        out[key] = out.get(key, 0.0j) + c * xm
    return out


def _tail_bound(spec, u, keys, coeffs):
    """R -> incomplete-gamma bound on the dropped radial tail [R, inf), per row."""
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
    and the complex coefficient coeffs[r, j] of each shared term
    keys[j] = (power of a(rho), tau-monomial exponents).
    """
    two_n = 2 * spec.n
    # the real part of coeff * angular integral: Re coeff * A for even
    # tau-monomials, Im coeff * A for odd ones (see _angular)
    odd = np.array([sum(lam) % 2 == 1 for _, lam in keys])
    wts = np.where(odd, coeffs.imag, coeffs.real)

    def f(rows, rho):
        q = _rho_over_sinh_pow(rho, two_n)
        a = _rho_coth(rho)
        base = (rho * rho / 8.0) * q * np.exp(-a * u[rows, None])
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
    return _truncation_radius(_tail_bound(spec, u, keys, coeffs), 6.0 + 2.0 / max(spec.n, 1), tol, 400.0)


def _kernel_rows(spec, t, x, z, keys, coeffs, cfg):
    """KernelValue, or ToleranceError, of p(t_r, 0, (x_r, z_r)) for each row r.

    t (N,), x (N, m) and z (N, 3) are float arrays; coeffs[r, j] is row r's
    coefficient of the shared term keys[j] (see _make_integrand).
    """
    x = np.ascontiguousarray(x, dtype=float)
    z = np.ascontiguousarray(z, dtype=float)
    u = np.einsum("ij,ij->i", x, x) / (4.0 * t)
    znorm = np.sqrt(np.einsum("ij,ij->i", z, z))
    zc = znorm / (4.0 * t)
    uvec = z / np.where(znorm > 0.0, znorm, 1.0)[:, None]
    R, tail = _auto_truncation(spec, u, keys, coeffs, cfg.abs_tol / 10.0)
    n_osc = R * zc / (2.0 * math.pi)
    min_panels = np.maximum(4, np.maximum(np.ceil(R / 5.0), np.ceil(1.5 * n_osc))).astype(int)
    pre = _prefactor(spec, t)
    f = _make_integrand(spec, u, zc, uvec, keys, coeffs)
    results = gk_rows(
        f, np.zeros_like(R), R, cfg.rel_tol, cfg.abs_tol / np.maximum(pre, 1.0), cfg.max_evals, min_panels
    )
    out = []
    for res, p, tl in zip(results, pre.tolist(), tail.tolist()):
        if isinstance(res, ToleranceError):
            out.append(ToleranceError(str(res), value=p * res.value, err=p * res.err + p * tl))
        else:
            val, err, n_evals = res
            out.append(KernelValue(p * val, p * (err + tl), n_evals))
    return out


def heat_kernel(spec, query, cfg=None):
    """Evaluate p(t, base, target) or a spatial derivative at the target.

    Derivatives are taken in the target coordinates and are supported for
    base = identity (weighted order <= 4: x counts 1, z counts 2).  Returns a
    KernelValue with an error estimate covering quadrature and truncation.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    t = query.t
    base = query.base if query.base is not None else identity_point(spec)
    order = _weighted_order(spec, query.derivative)
    if order > 4:
        raise ValueError("derivative queries above weighted order 4 are unsupported")
    base_is_identity = all(v == 0 for v in base.x) and all(v == 0 for v in base.z)
    if order > 0 and not base_is_identity:
        raise NotImplementedError("derivative queries require base at the identity")
    h = query.target if base_is_identity else group_mul(spec, group_inverse(base), query.target)
    x, z = h.as_floats()

    folded = _collapse_terms(_derivative_terms(spec, query.derivative, t), x)
    if not folded:
        return KernelValue(0.0, 0.0, 0)
    keys = list(folded)
    coeffs = np.array([[folded[key] for key in keys]])
    (res,) = _kernel_rows(spec, np.array([float(t)]), x[None], z[None], keys, coeffs, cfg)
    if isinstance(res, ToleranceError):
        raise res
    return res


def heat_kernel_point(spec, t, x, z, derivative=(), cfg=None):
    """Convenience wrapper: p(t, 0, (x, z)) (or derivative) from raw arrays."""
    target = GroupPoint(x=tuple(float(v) for v in x), z=tuple(float(v) for v in z))
    q = KernelQuery(t=t, base=None, target=target, derivative=tuple(derivative))
    return heat_kernel(spec, q, cfg)


def _kernel_grid(spec, t, rx, rz):
    """Plain-kernel values on a radial grid, vectorized: P[i, j] = p(t, rx_i, rz_j).

    Returns (values, errors); errors combine the embedded-Gauss difference of
    the radial rule and the analytic tail bound.
    """
    n = spec.n
    rx = np.asarray(rx, dtype=float)
    rz = np.asarray(rz, dtype=float)
    u = rx * rx / (4.0 * t)
    zc = rz / (4.0 * t)
    ones = np.ones((len(u), 1))
    R = float(_auto_truncation(spec, np.zeros(1), _PLAIN, ones[:1], 1e-14)[0][0])
    kmax = R * float(zc.max(initial=0.0))
    n_rho_panels = max(16, int(math.ceil(kmax / (2.0 * math.pi) / 2.0)))
    rho, wk, wg = composite_gk_nodes(0.0, R, n_rho_panels)
    q = _rho_over_sinh_pow(rho, 2 * n)
    a = _rho_coth(rho)
    base = (rho * rho / 8.0) * q * 4.0 * math.pi
    E = np.exp(-np.outer(u, a))  # (Nx, Nrho)
    J = _j0(np.outer(zc, rho))  # (Nz, Nrho)
    pre = _prefactor(spec, t)
    vals_k = pre * (E * (base * wk)) @ J.T
    vals_g = pre * (E * (base * wg)) @ J.T
    tails = pre * _tail_bound(spec, u, _PLAIN, ones)(R)
    errs = np.abs(vals_k - vals_g) + tails[:, None]
    return vals_k, errs


def _sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _grid_expectations(spec, t, weights, n_rx, n_rz, rx_max, rz_max):
    """(value, propagated radial-quadrature error) per weight on one grid."""
    rxn, wxk, _ = composite_gk_nodes(0.0, rx_max, n_rx)
    rzn, wzk, _ = composite_gk_nodes(0.0, rz_max, n_rz)
    P, Perr = _kernel_grid(spec, t, rxn, rzn)
    geom = (
        spec.haar_factor
        * _sphere_area(spec.m)
        * _sphere_area(3)
        * np.outer(rxn ** (spec.m - 1), rzn**2)
    )
    out = []
    for weight in weights:
        wgt = weight(rxn[:, None], rzn[None, :])
        F = P * wgt * geom
        Ferr = Perr * np.abs(wgt) * geom
        out.append((float(wxk @ F @ wzk), float(np.abs(wxk) @ Ferr @ np.abs(wzk))))
    return out


def radial_expectation(spec, t, weights):
    """Integrals of p(t,0,.) * weight(rx, rz) against the Haar measure.

    Each weight is vectorized over meshgrid arrays (rx[:, None], rz[None, :]).
    The kernel is tabulated once on a fine and once on a coarse grid, shared
    by all weights; each estimate compares the two resolutions (a posteriori)
    and adds the propagated radial-quadrature errors.  Returns one
    (value, error_estimate) pair per weight, in order.
    """
    n_rx, n_rz = 18, 26
    rx_max = 14.0 * math.sqrt(t) + 2.0
    sigma_z = math.sqrt(32.0 * spec.n) * t
    rz_max = 12.0 * sigma_z + 40.0 * t
    fine = _grid_expectations(spec, t, weights, n_rx, n_rz, rx_max, rz_max)
    coarse = _grid_expectations(
        spec, t, weights, max(6, (2 * n_rx) // 3), max(6, (2 * n_rz) // 3), rx_max, rz_max
    )
    return [
        (val, 2.0 * abs(val - cval) + 1e-3 * inner + 1e-14 * abs(val))
        for (val, inner), (cval, _) in zip(fine, coarse)
    ]


def _unit_weight(rx, rz):
    return np.ones_like(rx * rz)


def normalization_integral(spec, t):
    """Total mass of p(t, 0, .) against the Haar measure (should be 1)."""
    return radial_expectation(spec, t, [_unit_weight])[0]


def kernel_marginal_moments(spec, t):
    """First and second marginal moments of p(t, 0, .) d(haar).

    Odd moments vanish exactly in the radial reduction (parity); the mass and
    the diagonal second moments come from one radial_expectation call.  For
    reference the flat x-marginal gives E[x_a^2] = 2t and the vertical
    variance is 32 n t^2.
    """
    mass, ex2, ez2 = radial_expectation(
        spec, t, [_unit_weight, lambda rx, rz: rx * rx / spec.m, lambda rx, rz: rz * rz / 3.0]
    )
    return {
        "mass": mass,
        "Ex": (0.0, 0.0),
        "Ez": (0.0, 0.0),
        "Exx_diag": ex2,
        "Exx_offdiag": (0.0, 0.0),
        "Ezz_diag": ez2,
        "Ezz_offdiag": (0.0, 0.0),
    }


def batch_evaluate(spec, rows, cfg=None):
    """Evaluate plain kernel rows (t, x_1..x_m, z_1..z_3); never raises per row.

    Each row is checked on its own; the valid rows go through the row-batched
    quadrature _ROW_BLOCK rows at a time, and each gets the same bits as
    heat_kernel_point on it.  Returns one dict per row with value/err or an
    error message.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    m = spec.m
    out = [None] * len(rows)
    valid, points = [], []
    for i, row in enumerate(rows):
        try:
            vals = [float(v) for v in row[: m + 4]]
            if len(vals) != m + 4:
                raise ValueError("expected %d coordinates" % (m + 3))
            _check_point(vals[0], vals[1:])
        except ValueError as exc:
            out[i] = {"ok": False, "error": str(exc)}
            continue
        valid.append(i)
        points.append(vals)
    pts = np.array(points).reshape(-1, m + 4)
    for s in range(0, len(valid), _ROW_BLOCK):
        blk = pts[s : s + _ROW_BLOCK]
        coeffs = np.ones((len(blk), 1), dtype=complex)
        results = _kernel_rows(spec, blk[:, 0], blk[:, 1 : m + 1], blk[:, m + 1 :], _PLAIN, coeffs, cfg)
        for i, res in zip(valid[s : s + _ROW_BLOCK], results):
            if isinstance(res, ToleranceError):
                out[i] = {"ok": False, "error": str(res)}
            else:
                out[i] = {"ok": True, "value": res.value, "err": res.err_estimate}
    return out
