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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln

from .group import GroupPoint, group_inverse, group_mul, identity_point
from .quadrature import ToleranceError, adaptive_gk, composite_gk_nodes

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
        if self.t <= 0:
            raise ValueError("time must be positive")


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
    """const * integral_R^inf rho^mpow exp(-rate rho) drho (incomplete gamma)."""
    logtail = gammaln(mpow + 1) - (mpow + 1) * math.log(rate)
    return const * gammaincc(mpow + 1, rate * R) * math.exp(logtail)


def _truncation_radius(bound, R0, tol, R_max):
    """First R = R0, R0 + 4, ... with tail bound(R) <= tol or R >= R_max: (R, bound(R))."""
    R = R0
    tail = bound(R)
    while tail > tol and R < R_max:
        R += 4.0
        tail = bound(R)
    return R, tail


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
    """Integral of omega^lam exp(-i k <omega, u>) over the unit sphere."""
    key = lam
    if key in cache:
        return cache[key]
    total = sum(lam)
    if total == 0:
        out = 4.0 * math.pi * _j0(k) + 0.0j
    elif total == 1:
        i = lam.index(1)
        out = -4.0j * math.pi * _j1(k) * uvec[i]
    else:
        idx = [i for i in range(3) for _ in range(lam[i])]
        i, j = idx
        if i == j:
            out = 4.0 * math.pi * (_j1_over_k(k) - _j2(k) * uvec[i] * uvec[i]) + 0.0j
        else:
            out = -4.0 * math.pi * _j2(k) * uvec[i] * uvec[j] + 0.0j
    cache[key] = out
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


def _tail_bound(spec, t, u, folded, R):
    """Incomplete-gamma bound on the dropped radial tail [R, inf)."""
    n = spec.n
    c = 2 * n + u
    total = 0.0
    for (na, lam), coeff in folded.items():
        slam = sum(lam)
        mpow = 2 + 2 * n + na + slam
        const = (
            abs(coeff)
            * 0.5**slam
            * 1.02**na
            * 8.0
            * math.pi
            * (2.02**(2 * n))
            / 8.0
        )
        total += _exp_tail(const, mpow, c, R)
    return total


def _make_integrand(spec, t, x, z, folded):
    n = spec.n
    u = float(np.dot(x, x)) / (4.0 * t)
    znorm = float(np.linalg.norm(z))
    zc = znorm / (4.0 * t)
    uvec = z / znorm if znorm > 0 else np.zeros(3)

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        q = _rho_over_sinh_pow(rho, 2 * n)
        a = _rho_coth(rho)
        base = (rho * rho / 8.0) * q * np.exp(-a * u)
        k = zc * rho
        cache = {}
        acc = np.zeros(rho.shape, dtype=complex)
        for (na, lam), coeff in folded.items():
            term = coeff * _angular(lam, k, uvec, cache)
            if na:
                term = term * a**na
            slam = sum(lam)
            if slam:
                term = term * (0.5 * rho) ** slam
            acc = acc + term
        return base * np.real(acc)

    return f, u


def _auto_truncation(spec, t, u, folded, tol):
    """(R, tail bound at R) for the kernel's radial integral."""
    bound = lambda R: _tail_bound(spec, t, u, folded, R)
    return _truncation_radius(bound, 6.0 + 2.0 / max(spec.n, 1), tol, 400.0)


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

    terms = _derivative_terms(spec, query.derivative, t)
    folded = _collapse_terms(terms, x)
    if not folded:
        return KernelValue(0.0, 0.0, 0)
    f, u = _make_integrand(spec, t, x, z, folded)
    R, tail = _auto_truncation(spec, t, u, folded, cfg.abs_tol / 10.0)

    zc = float(np.linalg.norm(z)) / (4.0 * t)
    n_osc = R * zc / (2.0 * math.pi)
    min_panels = max(4, int(math.ceil(R / 5.0)), int(math.ceil(1.5 * n_osc)))
    pre = _prefactor(spec, t)
    try:
        val, err, n_evals = adaptive_gk(
            f,
            0.0,
            R,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol / max(pre, 1.0),
            max_evals=cfg.max_evals,
            min_panels=min_panels,
        )
    except ToleranceError as exc:
        best = pre * exc.value if exc.value is not None else None
        raise ToleranceError(str(exc), value=best, err=pre * exc.err + pre * tail) from exc
    return KernelValue(pre * val, pre * (err + tail), n_evals)


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
    folded = {(0, (0, 0, 0)): 1.0 + 0.0j}
    R, _ = _auto_truncation(spec, t, 0.0, folded, 1e-14)
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
    tails = np.array([pre * _tail_bound(spec, t, float(ui), folded, R) for ui in u])
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
    """Evaluate kernel queries (t, x..., z...) per row; never raises per row.

    Returns a list of dicts with value/err or an error message per row.
    """
    out = []
    for row in rows:
        try:
            t = float(row[0])
            x = [float(v) for v in row[1 : 1 + spec.m]]
            z = [float(v) for v in row[1 + spec.m : 1 + spec.m + 3]]
            if len(x) != spec.m or len(z) != 3:
                raise ValueError("expected %d coordinates" % (spec.m + 3))
            kv = heat_kernel_point(spec, t, x, z, cfg=cfg)
            out.append({"ok": True, "value": kv.value, "err": kv.err_estimate})
        except (ValueError, ToleranceError) as exc:
            out.append({"ok": False, "error": str(exc)})
    return out
