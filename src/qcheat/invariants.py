"""Heat invariants: c0, the universal constant Cn, and spectral extraction.

c0(n) is the diagonal value of the flat-group kernel,

    c0 = (16 n)^{3/2} / (4 pi)^{2n+3} * Integral_{R^3} (|tau|/sinh|tau|)^{2n} dtau,

computed by radial Gauss-Kronrod quadrature with an analytic tail bound and
cross-checked against an exact zeta-series evaluation.

Cn comes from the second invariant of the quaternionic sphere S^{4n+3},

    c1(sphere) = (16 n)^{3/2} / (4 pi)^{2n+2}
                 * Integral_0^inf y^{2n+2} sinh(y)^{-2n} [4n(n+1) + 2n(2n+1) rho(y)] dy,

with rho(y) = (sinh y - y cosh y) / (y^2 sinh y), taken against the same
Popp measure as c0.  kappa(sphere) = 16 n (n+2), so Cn = c1(sphere) / kappa
and c1 = Cn * kappa with Cn universal.  As d/dy sinh^{-2n} y =
-2n cosh y / sinh^{2n+1} y, integration by parts (no boundary terms) turns
the rho term into -(2n+1) (y/sinh y)^{2n}, so the integral is

    Integral_0^inf (y/sinh y)^{2n} (4n(n+1) y^2 - (2n+1)) dy

on the radial weight of c0, and c1(sphere)/c0 = 4n(n+1) - (2n+1) I_0/I_2
with I_k = Integral_0^inf y^k (y/sinh y)^{2n} dy.  At n = 1, I_0 = pi^2/6
and I_2 = pi^4/30 give 8 - 15/pi^2.

The zeta-series oracles write each integrand as a term list, a term
(coeff, q, p, c) being coeff y^q cosh(y)^c / sinh(y)^p: c0 is
[(1, 2n+2, 2n, 0)] and Cn has three terms.  One engine, _zeta_powers, turns
a list into exact rational coefficients of Hurwitz zeta values zeta(j, n),
all at even j.  Each is evaluated by the integer shift

    zeta(j, n) = zeta(j) - sum_{u<n} u^{-j},   zeta(j) = |B_j| (2 pi)^j / (2 j!),

which cancels about j log10 n digits, so it runs with
floor(j_max log10 n) + 5 digits on top of the oracle's _ZETA_DPS + n.

spectral_extract fits a truncated heat trace of a manifold of dimension
4n+3 to t^{-(2n+3)} (A + B t + C t^2 + ...): the exponent Q/2 = 2n+3 is
fixed by the structure, so the fit is one linear least-squares problem.  For
a qc-Einstein manifold A = c0 Vol and B = Cn kappa Vol, which gives the Popp
volume and kappa.  For non-Einstein traces the fitted B corresponds to Cn *
integral of kappa dP; this is documented but untested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import _exp_tail, _rho_over_sinh_pow, _truncation_radius
from .quadrature import adaptive_gk
from .tensors import InvariantError

__all__ = [
    "SpectrumFile",
    "compute_c0",
    "c0_zeta_series",
    "compute_Cn",
    "Cn_zeta_series",
    "bw_sphere_c1_integral",
    "sphere_kappa",
    "spectral_extract",
    "fit_heat_trace",
]

_MAX_EVALS = 200_000  # evaluation cap of the c0 and sphere-integral quadratures
# mpmath digits of the zeta-series oracles beyond the n digits their terms
# cancel; each zeta(j, n) = zeta(j) - sum_{u<n} u^-j adds
# floor(j_max log10 n) + 5 digits for its own cancellation
_ZETA_DPS = 50
_TAIL_CEILING = 1e-6  # largest tail fraction spectral_extract accepts


def _zeta_powers(terms, n):
    """Integral_0^inf of a sum of terms as {j: Fraction}, the integral being sum_j c_j zeta(j, n).

    A term (coeff, q, p, c) is coeff y^q cosh(y)^c / sinh(y)^p with p - c
    even and >= 2n.  1/sinh^p = 2^p sum_k C(p-1+k, k) e^{-(p+2k)y} and
    cosh = (e^y + e^{-y})/2 make every rate 2u with u >= n; the binomial is
    a polynomial in u that vanishes at each u >= n whose k is negative, and
    y^q integrates to q!/(2u)^{q+1}.  A divergent power (j < 2) must cancel.
    """
    out = {}
    for coeff, q, p, c in terms:
        for i in range(c + 1):  # e^{(c-2i)y} of cosh^c: k = u - (p-c)/2 - i
            shift = i + (p - c) // 2
            poly = [1]  # prod_{l=1}^{p-1} (u - shift + l), coefficients of u^0, u^1, ...
            for l in range(1, p):
                poly = [a * (l - shift) + b for a, b in zip(poly + [0], [0] + poly)]
            scale = Fraction(
                coeff * 2**p * math.comb(c, i) * math.factorial(q),
                2 ** (c + q + 1) * math.factorial(p - 1),
            )
            for d, a in enumerate(poly):
                out[q + 1 - d] = out.get(q + 1 - d, 0) + scale * a
    powers = {j: v for j, v in sorted(out.items()) if v}
    if min(powers) < 2:
        raise InvariantError("divergent zeta power %d survived; series derivation broken" % min(powers))
    odd = [j for j in powers if j % 2]
    if odd:
        raise InvariantError("odd zeta power %d survived; series derivation broken" % odd[0])
    return powers


def _zeta_integral(terms, n):
    """Integral_0^inf of a sum of terms as an mpf at the caller's precision (see _zeta_powers).

    Each zeta(j, n) is zeta(j) - sum_{u<n} u^-j, with zeta(j) =
    |B_j| (2 pi)^j / (2 j!) at even j.  The difference is about n^-j
    times its terms, so it runs with floor(j_max log10 n) + 5 more digits.
    """
    import mpmath

    powers = _zeta_powers(terms, n)
    with mpmath.extradps(int(max(powers) * math.log10(n)) + 5):
        prec = mpmath.mp.prec
        total = mpmath.mpf(0)
        for j, c in powers.items():
            num, den = mpmath.bernfrac(j)
            zeta = abs(mpmath.mpf(num)) / den * (2 * mpmath.pi) ** j / (2 * math.factorial(j))
            # sum_{u<n} u^-j from its terms floored to multiples of 2^-prec: within n 2^-prec
            head = mpmath.ldexp(sum((1 << prec) // u**j for u in range(1, n)), -prec)
            total += mpmath.mpf(c.numerator) / c.denominator * (zeta - head)
    return +total


def c0_zeta_series(n):
    """Exact series evaluation of c0(n); for n=1 this is the zeta(4) value."""
    import mpmath

    with mpmath.workdps(_ZETA_DPS + n):
        integral = _zeta_integral([(1, 2 * n + 2, 2 * n, 0)], n)
        pref = (16 * n) ** mpmath.mpf("1.5") * 4 * mpmath.pi / (4 * mpmath.pi) ** (2 * n + 3)
        return float(pref * integral)


def _weight_integral(n, a, b, tol):
    """(Integral_0^inf (y/sinh y)^{2n} (a y^2 - b) dy, error) for a, b >= 0.

    tol is the relative tolerance and tol * 1e-3 the absolute floor.  Far
    out the integrand is at most 2.02^{2n} (a + b) y^{2n+2} e^{-2n y},
    which bounds the tail beyond the truncation radius.
    """
    abs_tol = tol * 1e-3
    bound = lambda R: _exp_tail(2.02 ** (2 * n) * (a + b), 2 * n + 2, 2.0 * n, R)
    R, tail = (float(v[0]) for v in _truncation_radius(bound, 8.0, abs_tol / 10.0, 300.0))
    f = lambda y: _rho_over_sinh_pow(y, 2 * n) * (a * y * y - b)
    val, err, _ = adaptive_gk(f, 0.0, R, rel_tol=tol, abs_tol=abs_tol, max_evals=_MAX_EVALS)
    return val, err + tail


def _four_pi_power(e, n):
    """(4 pi)^e as a float; an OverflowError that names e and n past the double range."""
    try:
        return (4.0 * math.pi) ** e
    except OverflowError:
        raise OverflowError("(4 pi)^%d at n = %d is past the largest double" % (e, n)) from None


def _in_normal_range(name, n, val, err):
    """(val, err), or an OverflowError naming the quantity and n when either is not finite or below the smallest normal double."""
    tiny = np.finfo(float).tiny
    if not (tiny <= abs(val) < math.inf and tiny <= err < math.inf):
        raise OverflowError("%s at n = %d is out of floating-point range: %r +- %r" % (name, n, val, err))
    return val, err


def compute_c0(n, tol=1e-11):
    """First heat invariant c0(n) by radial quadrature to relative tolerance tol; returns (value, error).

    OverflowError past the double range: the error bound is below the
    smallest normal double from n = 135 at tol 1e-11 (136 at 1e-10), and
    (4 pi)^(2n+3) overflows from n = 139.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    val, err = _weight_integral(n, 1, 0, tol)
    pref = (16.0 * n) ** 1.5 * 4.0 * math.pi / _four_pi_power(2 * n + 3, n)
    return _in_normal_range("c0", n, pref * val, pref * err)


def bw_sphere_c1_integral(n, tol=1e-11):
    """The sphere's c1: (16 n)^{3/2} integral/(4 pi)^{2n+2}, by parts; returns (value, error)."""
    val, err = _weight_integral(n, 4 * n * (n + 1), 2 * n + 1, tol)
    pref = (16.0 * n) ** 1.5 / _four_pi_power(2 * n + 2, n)
    return pref * val, pref * err


def compute_Cn(n, tol=1e-11):
    """Universal second-invariant constant Cn to relative tolerance tol; returns (value, error).

    OverflowError past the double range: the error bound is below the
    smallest normal double from n = 135, and (4 pi)^(2n+2) overflows from
    n = 140.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c1, err = bw_sphere_c1_integral(n, tol)
    kappa = sphere_kappa(n)
    return _in_normal_range("Cn", n, c1 / kappa, err / kappa)


def sphere_kappa(n):
    """qc scalar curvature of the standard sphere S^{4n+3}: 16 n (n+2)."""
    return 16.0 * n * (n + 2.0)


def Cn_zeta_series(n):
    """Exact zeta-series evaluation of Cn (independent of the quadrature path).

    The sphere integrand before integration by parts, with
    rho(y) y^2 sinh y = sinh y - y cosh y multiplied out, as terms of
    _zeta_powers.
    """
    terms = [
        (4 * n * (n + 1), 2 * n + 2, 2 * n, 0),
        (2 * n * (2 * n + 1), 2 * n, 2 * n, 0),
        (-2 * n * (2 * n + 1), 2 * n + 1, 2 * n + 1, 1),
    ]
    import mpmath

    with mpmath.workdps(_ZETA_DPS + n):
        integral = _zeta_integral(terms, n)
        pref = (16 * n) ** mpmath.mpf("1.5") / (sphere_kappa(n) * (4 * mpmath.pi) ** (2 * n + 2))
        return float(pref * integral)


@dataclass(frozen=True)
class SpectrumFile:
    """Sorted eigenvalue list with multiplicities; lambda_1 = 0 permitted."""

    eigenvalues: tuple
    multiplicities: tuple

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
    def parse(cls, text):
        """One "eigenvalue multiplicity" pair per line, '#' comments."""
        ev, mult = [], []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("line %d: expected 'eigenvalue multiplicity'" % ln)
            try:
                ev.append(float(parts[0]))
                mult.append(int(parts[1]))
            except ValueError as exc:
                raise ValueError("line %d: %s" % (ln, exc)) from exc
        return cls(eigenvalues=tuple(ev), multiplicities=tuple(mult))

    def dump(self):
        lines = ["# eigenvalue multiplicity"]
        for l, m in zip(self.eigenvalues, self.multiplicities):
            lines.append("%.17g %d" % (l, m))
        return "\n".join(lines) + "\n"

    def trace(self, t):
        ev = np.asarray(self.eigenvalues)
        mult = np.asarray(self.multiplicities, dtype=float)
        # one time at a time: the len(t) x len(ev) table of a long spectrum is large
        return np.array([np.exp(-s * ev) @ mult for s in np.ravel(t)])


def _time_grid(t_grid):
    """t_grid as a float array of at least 4 distinct positive finite times.

    The fit of fit_heat_trace needs that many: a repeated time adds no
    equation but counts toward the degree, and the fit is then
    rank-deficient with errors that need not cover the truth.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 4:
        raise ValueError("time grid needs at least 4 times")
    if not np.all((t > 0) & np.isfinite(t)):
        raise ValueError("time grid must be positive and finite")
    if len(np.unique(t)) != len(t):
        raise ValueError("time grid has a repeated time")
    return t


def fit_heat_trace(t_grid, trace_values, n):
    """Fit trace * t^{2n+3} = A + B t + C t^2 + ... by linear least squares.

    The exponent Q = 4n+6 of a qc manifold of dimension 4n+3 is fixed, so
    only the amplitudes are fitted: a polynomial in t / max(t) of degree
    min(7, len(t) - 2).  The error of A and of B is the change from the fit
    one degree lower.  Returns (A, A_err, B, B_err, degree).
    """
    t = _time_grid(t_grid)
    tr = np.asarray(trace_values, dtype=float)
    if tr.shape != t.shape:
        raise ValueError("need a trace value at each grid time")
    if not np.all((tr > 0) & np.isfinite(tr)):
        raise ValueError("trace values must be positive and finite")
    y = tr * t ** (2 * n + 3)
    scale = t.max()
    degree = min(7, len(t) - 2)

    def amplitudes(d):
        coef = np.linalg.lstsq(np.vander(t / scale, d + 1, increasing=True), y, rcond=None)[0]
        return coef[0], coef[1] / scale

    A, B = amplitudes(degree)
    A_low, B_low = amplitudes(degree - 1)
    return float(A), float(abs(A - A_low)), float(B), float(abs(B - B_low)), degree


def spectral_extract(spectrum, t_grid, n):
    """Fit (A, B) of a truncated spectrum's trace and derive the Popp volume and kappa.

    For a qc-Einstein manifold of dimension 4n+3, A = c0 Vol and
    B = Cn kappa Vol.  Each derived value carries an error propagated from
    those of A, B, c0 and Cn.  Fails if the truncated trace has not converged
    on the grid (tail above ceiling).
    """
    t = _time_grid(t_grid)
    tr = spectrum.trace(t)
    # contribution of the largest retained eigenvalue: the truncation proxy
    tail = float(np.max(spectrum.multiplicities[-1] * np.exp(-t * spectrum.eigenvalues[-1]) / tr))
    if tail > _TAIL_CEILING:
        raise ValueError(
            "spectrum too short for this grid: tail fraction %.3e > %.3e" % (tail, _TAIL_CEILING)
        )
    A, A_err, B, B_err, degree = fit_heat_trace(t, tr, n)
    c0, c0_err = compute_c0(n)
    cn, cn_err = compute_Cn(n)
    vol = A / c0
    kappa = B / (cn * vol)
    rel = A_err / abs(A) + c0_err / c0
    return {
        "A": A,
        "A_err": A_err,
        "B": B,
        "B_err": B_err,
        "degree": degree,
        "tail_fraction": tail,
        "derived": {
            "popp_volume": vol,
            "popp_volume_err": abs(vol) * rel,
            "kappa": kappa,
            "kappa_err": B_err / (cn * abs(vol)) + abs(kappa) * (rel + cn_err / cn),
        },
    }
