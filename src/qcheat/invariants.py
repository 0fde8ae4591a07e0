"""Heat invariants: c0, the universal constant Cn, and spectral extraction.

c0(n) is the diagonal value of the flat-group kernel,

    c0 = (16 n)^{3/2} / (4 pi)^{2n+3} * Integral_{R^3} (|tau|/sinh|tau|)^{2n} dtau,

computed by radial Gauss-Kronrod quadrature with an analytic tail bound and
cross-checked against an exact zeta-series evaluation (expanding 1/sinh^{2n}
into exponentials turns every term into a Gamma integral; the k-sum collapses
to Hurwitz zeta values with rational coefficients).

Cn comes from the closed-form integral quoted for the quaternionic sphere:
c1(sphere) equals the same integral without the 1/(16 n (n+2)) factor, and
kappa(sphere) = 16 n (n+2), so c1 = Cn * kappa with Cn universal.  The
integrand's removable small-y behavior is evaluated by series below a
threshold; the same zeta-series technique provides the independent oracle.

spectral_extract fits a truncated heat trace to t^{-Q/2} (A + B t), giving
the spectral invariants (dimension, Popp volume via A = c0 Vol, and
Cn kappa Vol via B) of a qc-Einstein manifold.  For non-Einstein traces the
fitted B corresponds to Cn * integral of kappa dP; this is documented but
untested.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .kernel import _exp_tail, _rho_over_sinh_pow, _truncation_radius
from .quadrature import adaptive_gk

__all__ = [
    "InvariantReport",
    "SpectrumFile",
    "compute_c0",
    "c0_zeta_series",
    "compute_Cn",
    "Cn_zeta_series",
    "bw_sphere_c1_integral",
    "sphere_kappa",
    "asymptotic_report",
    "spectral_extract",
    "fit_heat_trace",
]

_MAX_EVALS = 200_000  # evaluation cap of the c0 and sphere-integral quadratures
_ZETA_DPS = 50  # mpmath working precision of the zeta-series oracles
_Q_MIN, _Q_MAX = 0.2, 60.0  # search range of the heat-trace exponent Q
_TAIL_CEILING = 1e-6  # largest tail fraction spectral_extract accepts


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_from_linear_factors(shifts, denom):
    """prod_i (u + shift_i) / denom as coefficient list in u."""
    p = [Fraction(1)]
    for s in shifts:
        p = _poly_mul(p, [Fraction(s), Fraction(1)])
    return [c / denom for c in p]


def _zeta_sum(coeffs_by_power, n):
    """sum over u >= n of sum_j c_j u^{-j} via Hurwitz zeta, exact coefficients.

    Runs at the caller's working precision (the oracles set _ZETA_DPS).
    """
    total = mpmath.mpf(0)
    for j, c in sorted(coeffs_by_power.items()):
        if c == 0:
            continue
        if j < 2:
            raise ArithmeticError("divergent zeta power %d; cancellation failed" % j)
        total += mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(j, n)
    return total


def _series_powers(poly_u, mpow, scale):
    """scale * poly(u) * u^{-mpow} collected as {zeta power: Fraction}."""
    out = {}
    for i, c in enumerate(poly_u):
        if c:
            j = mpow - i
            out[j] = out.get(j, Fraction(0)) + scale * c
    return out


def c0_zeta_series(n):
    """Exact series evaluation of c0(n); for n=1 this is the zeta(4) value."""
    # integral_0^inf rho^{2n+2} / sinh^{2n} rho = 2^{2n} (2n+2)! sum_k C(2n-1+k,k) (2(n+k))^{-(2n+3)}
    fact = Fraction(math.factorial(2 * n + 2))
    a_poly = _poly_from_linear_factors(
        [i - n for i in range(1, 2 * n)], Fraction(math.factorial(2 * n - 1))
    )
    scale = Fraction(2) ** (2 * n) * fact / Fraction(2) ** (2 * n + 3)
    powers = _series_powers(a_poly, 2 * n + 3, scale)
    with mpmath.workdps(_ZETA_DPS):
        integral = _zeta_sum(powers, n)
        pref = (16 * n) ** mpmath.mpf("1.5") * 4 * mpmath.pi / (4 * mpmath.pi) ** (2 * n + 3)
        return float(pref * integral)


def _radial_integral(f, tail_const, n, rel_tol, abs_tol):
    """(Integral_0^inf f, error) for |f| <= tail_const rho^{2n+2} e^{-2n rho} far out."""
    bound = lambda R: _exp_tail(tail_const, 2 * n + 2, 2.0 * n, R)
    R, tail = (float(v[0]) for v in _truncation_radius(bound, 8.0, abs_tol / 10.0, 300.0))
    val, err, _ = adaptive_gk(f, 0.0, R, rel_tol=rel_tol, abs_tol=abs_tol, max_evals=_MAX_EVALS)
    return val, err + tail


def compute_c0(n, rel_tol=1e-11, abs_tol=1e-14):
    """First heat invariant c0(n) by radial quadrature; returns (value, error)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    integrand = lambda rho: rho * rho * _rho_over_sinh_pow(rho, 2 * n)
    val, err = _radial_integral(integrand, 2.02 ** (2 * n), n, rel_tol, abs_tol)
    pref = (16.0 * n) ** 1.5 * 4.0 * math.pi / (4.0 * math.pi) ** (2 * n + 3)
    return pref * val, pref * err


def _cn_bracket(y, n):
    """(2n+1)^2 - 2n(2n+1) (sinh y - y cosh y)/(y^2 sinh y), series below 0.15.

    The ratio tends to -1/3 at y = 0 (numerator expands to
    -(y^3/3 + y^5/30 + y^7/840 + ...)), so the bracket's limit is
    (2n+1)^2 + 2n(2n+1)/3: finite, no singularity.
    """
    y = np.asarray(y, dtype=float)
    small = y < 0.15
    safe = np.where(small, 1.0, y)
    y2 = y * y
    y4 = y2 * y2
    num_series = -(y * y2 / 3.0 + y4 * y / 30.0 + y4 * y2 * y / 840.0 + y4 * y4 * y / 45360.0)
    denom_small = np.where(y > 0, y2 * np.sinh(np.where(y > 0, y, 1.0)), 1.0)
    ratio_small = np.where(y > 0, num_series / denom_small, -1.0 / 3.0)
    ratio_big = (np.sinh(safe) - safe * np.cosh(safe)) / (safe * safe * np.sinh(safe))
    ratio = np.where(small, ratio_small, ratio_big)
    return (2 * n + 1) ** 2 - 2 * n * (2 * n + 1) * ratio


def bw_sphere_c1_integral(n, rel_tol=1e-11, abs_tol=1e-14):
    """The sphere's c1: integral/(4 pi)^{2n+2}; returns (value, error)."""
    const = 2.02 ** (2 * n) * ((2 * n + 1) ** 2 + 2 * n * (2 * n + 1) * 1.1)
    integrand = lambda y: y * y * _rho_over_sinh_pow(y, 2 * n) * _cn_bracket(y, n)
    val, err = _radial_integral(integrand, const, n, rel_tol, abs_tol)
    pref = 1.0 / (4.0 * math.pi) ** (2 * n + 2)
    return pref * val, pref * err


def compute_Cn(n, rel_tol=1e-11, abs_tol=1e-14):
    """Universal second-invariant constant Cn; returns (value, error)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c1, err = bw_sphere_c1_integral(n, rel_tol, abs_tol)
    denom = 16.0 * (n * n + 2.0 * n)
    return c1 / denom, err / denom


def sphere_kappa(n):
    """qc scalar curvature of the standard sphere S^{4n+3}: 16 n (n+2)."""
    return 16.0 * n * (n + 2.0)


def Cn_zeta_series(n):
    """Exact zeta-series evaluation of Cn (independent of the quadrature path).

    Expanding sinh^{-p} into exponentials makes every term a Gamma integral;
    collecting by the exponential rate 2(n+k) leaves rational combinations of
    Hurwitz zeta values.  Divergent powers must cancel exactly (the integrand
    is O(y^2) at the origin); that cancellation is asserted.
    """
    two_n = 2 * n
    fac = math.factorial
    a_poly = _poly_from_linear_factors(
        [i - n for i in range(1, two_n)], Fraction(fac(two_n - 1))
    )
    b_poly = _poly_from_linear_factors(
        [i - n for i in range(1, two_n + 1)], Fraction(fac(two_n))
    )
    b_prev = _poly_from_linear_factors(
        [i - n - 1 for i in range(1, two_n + 1)], Fraction(fac(two_n))
    )
    b_sum = [x + y for x, y in zip(b_poly, b_prev)]
    powers = {}
    for poly, mpow, coeff in (
        (a_poly, two_n + 3, (two_n + 1) ** 2 * fac(two_n + 2)),
        (a_poly, two_n + 1, -2 * n * (two_n + 1) * fac(two_n)),
        (b_sum, two_n + 2, 2 * n * (two_n + 1) * fac(two_n + 1)),
    ):
        for d, c in _series_powers(poly, mpow, Fraction(coeff * 2**two_n, 2**mpow)).items():
            powers[d] = powers.get(d, Fraction(0)) + c
    for j in list(powers):
        if j < 2 and powers[j] != 0:
            raise ArithmeticError("zeta power %d survived; series derivation broken" % j)
    with mpmath.workdps(_ZETA_DPS):
        integral = _zeta_sum({j: c for j, c in powers.items() if j >= 2}, n)
        denom = 16 * (n * n + 2 * n) * (4 * mpmath.pi) ** (two_n + 2)
        return float(integral / denom)


@dataclass(frozen=True)
class InvariantReport:
    """Computed invariants with error bounds and provenance."""

    n: int
    Q: int
    c0: float
    c0_err: float
    Cn: float
    Cn_err: float
    kappa: float
    c1: float
    c1_err: float
    provenance: dict = field(default_factory=dict)

    def to_json(self):
        doc = {
            "n": self.n,
            "Q": self.Q,
            "c0": self.c0,
            "c0_err": self.c0_err,
            "Cn": self.Cn,
            "Cn_err": self.Cn_err,
            "kappa": self.kappa,
            "c1": self.c1,
            "c1_err": self.c1_err,
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def asymptotic_report(n, kappa, rel_tol=1e-11, abs_tol=1e-14):
    """Assemble the two-term diagonal expansion report: c0 + Cn*kappa*t.

    kappa = 0 is the flat model: c1 = 0 and the group kernel diagonal is
    exactly c0 t^{-(2n+3)} (no subleading term).
    """
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    c0, c0e = compute_c0(n, rel_tol, abs_tol)
    cn, cne = compute_Cn(n, rel_tol, abs_tol)
    c0_oracle = c0_zeta_series(n)
    cn_oracle = Cn_zeta_series(n)
    prov = {
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
        "c0_zeta_oracle": c0_oracle,
        "c0_oracle_diff": c0 - c0_oracle,
        "Cn_zeta_oracle": cn_oracle,
        "Cn_oracle_diff": cn - cn_oracle,
        "flat_model": kappa == 0.0,
        "note": "kappa = 0 means the flat group: diagonal is exactly c0 t^{-(2n+3)}",
    }
    return InvariantReport(
        n=n,
        Q=4 * n + 6,
        c0=c0,
        c0_err=c0e,
        Cn=cn,
        Cn_err=cne,
        kappa=kappa,
        c1=cn * kappa,
        c1_err=cne * abs(kappa),
        provenance=prov,
    )


@dataclass(frozen=True)
class SpectrumFile:
    """Sorted eigenvalue list with multiplicities; lambda_1 = 0 permitted."""

    eigenvalues: tuple
    multiplicities: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.multiplicities):
            raise ValueError("eigenvalues and multiplicities differ in length")
        if len(self.eigenvalues) == 0:
            raise ValueError("empty spectrum")
        ev = self.eigenvalues
        if not all(math.isfinite(l) for l in ev):
            raise ValueError("non-finite eigenvalue")
        if any(l < 0 for l in ev):
            raise ValueError("negative eigenvalue")
        if any(a > b for a, b in zip(ev, ev[1:])):
            raise ValueError("eigenvalues must be nondecreasing")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def parse(cls, text, label=""):
        """One "eigenvalue multiplicity" pair per line, '#' comments."""
        ev, mult = [], []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("line %d: expected 'eigenvalue multiplicity'" % ln)
            ev.append(float(parts[0]))
            mult.append(int(parts[1]))
        return cls(eigenvalues=tuple(ev), multiplicities=tuple(mult), label=label)

    def dump(self):
        lines = ["# eigenvalue multiplicity"]
        for l, m in zip(self.eigenvalues, self.multiplicities):
            lines.append("%.17g %d" % (l, m))
        return "\n".join(lines) + "\n"

    def trace(self, t):
        t = np.asarray(t, dtype=float)
        ev = np.asarray(self.eigenvalues)
        mult = np.asarray(self.multiplicities, dtype=float)
        return np.exp(-np.outer(t, ev)) @ mult

    def tail_fraction(self, t):
        """Contribution of the largest retained eigenvalue: truncation proxy."""
        tr = self.trace(t)
        last = self.multiplicities[-1] * np.exp(-np.asarray(t) * self.eigenvalues[-1])
        return float(np.max(last / tr))


def fit_heat_trace(t_grid, trace_values):
    """Fit trace ~ t^{-Q/2} (A + B t) in log space with weights 1/t.

    For fixed Q the amplitudes (A, B) solve a weighted linear least-squares
    problem on trace * t^{Q/2}; Q minimizes the weighted log residual.
    Returns (Q, A, B, diagnostics) with the condition number of the
    amplitude system in the diagnostics.
    """
    t = np.asarray(t_grid, dtype=float)
    tr = np.asarray(trace_values, dtype=float)
    if t.ndim != 1 or len(t) < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(t <= 0) or np.any(tr <= 0):
        raise ValueError("grid and trace values must be positive")
    w = 1.0 / t

    def amplitudes(Q):
        R = tr * t ** (Q / 2.0)
        X = np.stack([np.ones_like(t), t], axis=1)
        Xw = X * w[:, None]
        M = X.T @ Xw
        rhs = X.T @ (w * R)
        sol = np.linalg.solve(M, rhs)
        cond = float(np.linalg.cond(M))
        return sol[0], sol[1], cond

    def objective(Q):
        A, B, _ = amplitudes(Q)
        R = tr * t ** (Q / 2.0)
        model = A + B * t
        if np.any(model <= 0):
            # sloped fallback keeps the search directed when log space is unusable
            lin = R - model
            return 1e6 + float(np.sum(w * lin * lin) / max(np.max(R) ** 2, 1e-300))
        resid = np.log(tr) + (Q / 2.0) * np.log(t) - np.log(model)
        return float(np.sum(w * resid * resid))

    # coarse scan first: the log objective can have flat infeasible plateaus
    qs = np.arange(_Q_MIN, _Q_MAX + 0.25, 0.25)
    best = min(qs, key=objective)
    lo = max(_Q_MIN, best - 0.5)
    hi = min(_Q_MAX, best + 0.5)
    from scipy.optimize import minimize_scalar  # imported here: large, and no other command needs it

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    Q = float(res.x)
    A, B, cond = amplitudes(Q)
    diagnostics = {"residual": objective(Q), "condition_number": cond}
    if cond > 1e12:
        diagnostics["warning"] = "ill-conditioned amplitude fit"
    return Q, float(A), float(B), diagnostics


def spectral_extract(spectrum, t_grid, n=None):
    """Extract (Q, A, B) from a truncated spectrum on a time grid.

    A ~ c0 * Vol and B ~ Cn * kappa * Vol for a qc-Einstein manifold; with n
    given, the derived dimension, Popp volume and kappa are included.  Fails
    if the truncated trace has not converged on the grid (tail above ceiling).
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise ValueError("time grid must be positive")
    tail = spectrum.tail_fraction(t)
    if tail > _TAIL_CEILING:
        raise ValueError(
            "spectrum too short for this grid: tail fraction %.3e > %.3e" % (tail, _TAIL_CEILING)
        )
    tr = spectrum.trace(t)
    Q, A, B, diag = fit_heat_trace(t, tr)
    out = {"Q": Q, "A": A, "B": B, "diagnostics": diag, "tail_fraction": tail}
    if n is not None:
        c0, _ = compute_c0(n)
        cn, _ = compute_Cn(n)
        vol = A / c0
        out["derived"] = {
            "n": n,
            "dimension": 4 * n + 3,
            "popp_volume": vol,
            "kappa": B / (cn * vol) if vol else float("nan"),
        }
    return out
