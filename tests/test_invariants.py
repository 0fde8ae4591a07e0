"""Heat-invariant values, oracles, and spectral extraction."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from qcheat.group import make_quaternionic_spec
from qcheat.invariants import (
    _ZETA_DPS,
    Cn_zeta_series,
    SpectrumFile,
    _pi_scaled,
    _tangent_numbers,
    _zeta_powers,
    c0_zeta_series,
    compute_Cn,
    compute_c0,
    fit_heat_trace,
    spectral_extract,
    sphere_kappa,
)
from qcheat.kernel import heat_kernel_point
from qcheat.tensors import InvariantError


def test_c0_n1_closed_form():
    v, err = compute_c0(1)
    assert abs(v - 1.0 / 120.0) < 1e-10
    oracle = c0_zeta_series(1)
    assert abs(oracle - 1.0 / 120.0) < 1e-12


# 134 is the largest level whose c0 error bound at the default tol is a normal double
@pytest.mark.parametrize("n", [1, 2, 3, 80, 134])
def test_c0_quadrature_vs_zeta_oracle(n):
    # the series terms cancel about n digits, so a fixed working precision fails at large n
    v, err = compute_c0(n)
    oracle = c0_zeta_series(n)
    assert abs(v - oracle) / oracle < 1e-9
    assert abs(v - oracle) <= err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_c0_matches_kernel_diagonal(n):
    spec = make_quaternionic_spec(n)
    v, err = compute_c0(n)
    kv = heat_kernel_point(spec, 1.0, [0.0] * spec.m, [0.0] * 3)
    assert abs(v - kv.value) <= err + kv.err_estimate + 1e-14


def test_c0_positive_small_levels():
    for n in range(1, 7):
        v, _ = compute_c0(n)
        assert v > 0


def test_cn_n1_closed_form():
    # c1/c0 of the sphere S^7 is 8 - 15/pi^2, with kappa = 48 and c0 = 1/120
    v, err = compute_Cn(1)
    assert abs(v * 48 * 120 - (8 - 15 / math.pi**2)) <= err * 48 * 120


@pytest.mark.parametrize("n", [1, 2, 80])
def test_cn_vs_zeta_series_oracle(n):
    v, err = compute_Cn(n)
    oracle = Cn_zeta_series(n)
    assert abs(v - oracle) / oracle < 1e-9
    assert abs(v - oracle) <= err


def _c0_terms(n):
    return [(1, 2 * n + 2, 2 * n, 0)]


def _cn_terms(n):
    """The sphere integrand before integration by parts, as Cn_zeta_series writes it."""
    return [
        (4 * n * (n + 1), 2 * n + 2, 2 * n, 0),
        (2 * n * (2 * n + 1), 2 * n, 2 * n, 0),
        (-2 * n * (2 * n + 1), 2 * n + 1, 2 * n + 1, 1),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_zeta_maps_even_and_convergent(n):
    """Exact c0 and Cn series maps: only even Hurwitz powers, none below 2."""
    c0_terms, cn_terms = _c0_terms(n), _cn_terms(n)
    for terms in (c0_terms, cn_terms):
        powers = _zeta_powers(terms, n)
        assert all(powers.get(j, 0) == 0 for j in range(1, 2 * n + 4, 2))
        assert min(powers) >= 2
    assert sorted(_zeta_powers(c0_terms, n)) == list(range(4, 2 * n + 3, 2))


@pytest.mark.parametrize("n", range(1, 13))
def test_by_parts_identity_exact(n):
    """The paper's three-term sphere integrand and the by-parts one
    (y/sinh y)^{2n} (4n(n+1) y^2 - (2n+1)) have the same exact zeta map."""
    paper = _cn_terms(n)
    by_parts = [(4 * n * (n + 1), 2 * n + 2, 2 * n, 0), (-(2 * n + 1), 2 * n, 2 * n, 0)]
    assert _zeta_powers(by_parts, n) == _zeta_powers(paper, n)


def test_zeta_divergent_power_raises():
    # 1/sinh^2 is not integrable at 0: its series keeps the powers 0 and 1
    with pytest.raises(InvariantError, match="divergent zeta power 0"):
        _zeta_powers([(1, 0, 2, 0)], 1)


def test_zeta_odd_power_raises():
    # y^3 / sinh^2 y integrates to (3/2) zeta(3), which has no Bernoulli form
    with pytest.raises(InvariantError, match="odd zeta power 3"):
        _zeta_powers([(1, 3, 2, 0)], 1)


def _hurwitz_route(terms, n, pref):
    """pref * Integral of terms from mpmath's Hurwitz zeta(j, n), at the oracles' precision."""
    with mpmath.workdps(_ZETA_DPS + n):
        total = mpmath.mpf(0)
        for j, c in _zeta_powers(terms, n).items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(j, n)
        return float(pref() * total)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 40])
def test_zeta_oracles_match_the_hurwitz_route(n):
    """The integer shift zeta(j) - sum_{u<n} u^-j gives the same floats as mpmath.zeta(j, n)."""
    c0_pref = lambda: (16 * n) ** mpmath.mpf("1.5") * 4 * mpmath.pi / (4 * mpmath.pi) ** (2 * n + 3)
    cn_pref = lambda: (16 * n) ** mpmath.mpf("1.5") / (sphere_kappa(n) * (4 * mpmath.pi) ** (2 * n + 2))
    assert c0_zeta_series(n) == _hurwitz_route(_c0_terms(n), n, c0_pref)
    assert Cn_zeta_series(n) == _hurwitz_route(_cn_terms(n), n, cn_pref)


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_cross_check_independent_quadrature(n):
    # Cn * 16 n (n+2) must equal the sphere c1 integral; the second route is
    # scipy's quadrature, independent of the Gauss-Kronrod production path.
    cn, _ = compute_Cn(n)

    def integrand(y):
        ratio = (math.sinh(y) - y * math.cosh(y)) / (y * y * math.sinh(y))
        return (
            y ** (2 * n + 2)
            / math.sinh(y) ** (2 * n)
            * (4 * n * (n + 1) + 2 * n * (2 * n + 1) * ratio)
        )

    val, _ = quad(integrand, 1e-10, 60.0, limit=200)
    bw = (16.0 * n) ** 1.5 * val / (4.0 * math.pi) ** (2 * n + 2)
    assert abs(cn * sphere_kappa(n) - bw) / bw < 1e-8


def test_fit_recovers_synthetic_trace():
    t = np.linspace(0.05, 0.5, 12)
    tr = t ** (-5.0) * (1.0 / 120.0 + 0.01 * t)
    A, A_err, B, B_err, degree = fit_heat_trace(t, tr, 1)
    assert degree == 7
    assert abs(A - 1.0 / 120.0) * 120.0 < 1e-12 and A_err < 1e-12
    assert abs(B - 0.01) / 0.01 < 1e-10 and B_err < 1e-10


def test_fit_degree_and_error_from_grid():
    # the degree follows the grid; the error is the change from one degree lower
    t = np.linspace(0.1, 0.4, 5)
    y = 2.0 + 3.0 * t + 5.0 * t**2 + 7.0 * t**3
    A, A_err, B, B_err, degree = fit_heat_trace(t, y / t**7, 2)
    assert degree == 3
    assert A == pytest.approx(2.0, rel=1e-12) and B == pytest.approx(3.0, rel=1e-12)
    s = t / t.max()
    low = np.polynomial.polynomial.polyfit(s, y, 2)
    assert A_err == pytest.approx(abs(2.0 - low[0]), rel=1e-8)
    assert B_err == pytest.approx(abs(3.0 - low[1] / t.max()), rel=1e-8)


def test_identical_spectra_identical_triple():
    ev = tuple(0.5 * k for k in range(0, 120))
    mult = tuple(1 + k * k for k in range(0, 120))
    sp1 = SpectrumFile(eigenvalues=ev, multiplicities=mult)
    sp2 = SpectrumFile(eigenvalues=ev, multiplicities=mult)
    grid = np.linspace(0.4, 1.2, 9)
    r1 = spectral_extract(sp1, grid, 1)
    r2 = spectral_extract(sp2, grid, 1)
    assert r1 == r2


def test_spectrum_errors():
    with pytest.raises(ValueError):
        SpectrumFile(eigenvalues=(), multiplicities=())
    with pytest.raises(ValueError):
        SpectrumFile(eigenvalues=(1.0, 0.5), multiplicities=(1, 1))
    with pytest.raises(ValueError):
        SpectrumFile(eigenvalues=(-1.0,), multiplicities=(1,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SpectrumFile(eigenvalues=(0.0, bad), multiplicities=(1, 1))
    sp = SpectrumFile(eigenvalues=(0.0, 1.0), multiplicities=(1, 2))
    with pytest.raises(ValueError, match="too short"):
        spectral_extract(sp, [0.1, 0.2, 0.3, 0.4], 1)  # truncated tail far too large
    with pytest.raises(ValueError):
        fit_heat_trace([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], 1)  # too few points
    # non-finite or repeated times fail before the trace is summed or fitted
    for grid, match in (
        ([math.nan, 0.01, 0.02, 0.03], "positive and finite"),
        ([math.inf, 0.01, 0.02, 0.03], "positive and finite"),
        ([0.01, 0.02, 0.03] + [0.03] * 5, "repeated"),
        ([0.02] * 3 + [0.05] * 3, "repeated"),
    ):
        with pytest.raises(ValueError, match=match):
            spectral_extract(sp, grid, 1)
        with pytest.raises(ValueError, match=match):
            fit_heat_trace(grid, [1.0] * len(grid), 1)


def test_spectrum_parse_round_trip():
    txt = "# test spectrum\n0.0 1\n1.25 4\n2.5 6\n"
    sp = SpectrumFile.parse(txt)
    assert sp.eigenvalues == (0.0, 1.25, 2.5)
    assert sp.multiplicities == (1, 4, 6)
    back = SpectrumFile.parse(sp.dump())
    assert back.eigenvalues == sp.eigenvalues and back.multiplicities == sp.multiplicities
    with pytest.raises(ValueError):
        SpectrumFile.parse("1.0 2 3\n")


def test_integer_pi_and_tangent_numbers():
    """The zeta oracles' two integer inputs: pi 2^bits within 2, and T_1..T_6."""
    with mpmath.workdps(400):
        for bits in (10, 64, 1000):
            assert abs(_pi_scaled(bits) - mpmath.pi * 2**bits) < 2
    assert _tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]
