"""Heat-kernel quadrature: spec examples, invariants, and the generator PDE."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from qcheat.group import GroupPoint, GroupSpec, group_inverse, group_mul, make_quaternionic_spec
from qcheat.kernel import (
    KernelValue,
    batch_evaluate,
    heat_kernel_point,
    kernel_marginal_moments,
    _exp_tail,
    _j0,
    _j1_over_k_and_j2,
    _query_rows,
    _rho_coth,
    _rho_over_sinh_pow,
    _truncation_radius,
    normalization_integral,
    radial_expectation,
)
from qcheat.quadrature import ToleranceError

from matrix_routes import action_function_matrix, volume_element_matrix

SPEC1 = make_quaternionic_spec(1)
SPEC2 = make_quaternionic_spec(2)


def pt(x, z):
    return GroupPoint(x=tuple(float(v) for v in x), z=tuple(float(v) for v in z))


def action(tau, x, z):
    """The displayed action i <tau, z> + a(|2 tau|) |x|^2 / 2, built from the kernel's _rho_coth."""
    rho = 2.0 * float(np.linalg.norm(tau))
    return 1j * float(np.dot(tau, z)) + 0.5 * float(_rho_coth(rho)) * float(np.dot(x, x))


def volume(spec, tau):
    """W(tau) = (|2 tau| / sinh |2 tau|)^{2n}, built from the kernel's _rho_over_sinh_pow."""
    return float(_rho_over_sinh_pow(2.0 * float(np.linalg.norm(tau)), 2 * spec.n))


def test_action_function_trivials():
    x, z = [1.0, 2.0, -1.0, 0.5], [3.0, -1.0, 0.25]
    x2 = sum(v * v for v in x)
    assert action_function_matrix(SPEC1, [0, 0, 0], x, z) == pytest.approx(0.5 * x2)
    assert action_function_matrix(SPEC1, [0.3, -0.7, 0.2], [0] * 4, [0] * 3) == 0
    phi = action_function_matrix(SPEC1, [0.3, -0.7, 0.2], x, z)
    assert phi.imag == pytest.approx(np.dot([0.3, -0.7, 0.2], z))


def test_action_real_part_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tau = rng.normal(size=3) * 3
        x = rng.normal(size=4)
        phi = action_function_matrix(SPEC1, tau, x, rng.normal(size=3))
        assert phi.real >= 0.5 * np.dot(x, x) - 1e-12


def test_action_and_volume_match_matrix_route():
    # the matrix forms against the radial helpers the kernel integrates
    rng = np.random.default_rng(1)
    for spec in (SPEC1, SPEC2):
        for _ in range(10):
            tau = rng.normal(size=3)
            x, z = rng.normal(size=spec.m), rng.normal(size=3)
            assert action_function_matrix(spec, tau, x, z) == pytest.approx(action(tau, x, z), abs=1e-10)
            assert volume_element_matrix(spec, tau) == pytest.approx(volume(spec, tau), abs=1e-12)


def test_matrix_route_on_generic_step_two_spec():
    heis = GroupSpec(J=(((0, 1), (-1, 0)),))
    w = volume_element_matrix(heis, [0.7])
    # eigenvalues of i*Omega are +-2*0.7: W = (1.4/sinh 1.4)
    assert w == pytest.approx(1.4 / math.sinh(1.4), abs=1e-12)
    phi = action_function_matrix(heis, [0.7], [1.0, 0.0], [0.5])
    assert phi.real == pytest.approx(0.5 * 1.4 / math.tanh(1.4), abs=1e-12)


def test_volume_element_basics():
    assert volume(SPEC1, [0, 0, 0]) == 1.0
    rs = np.linspace(0.0, 5.0, 40)
    vals = [volume(SPEC1, [r, 0, 0]) for r in rs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_volume_element_integral_change_of_variables():
    # int_{R^3} W(tau) dtau = (4pi/8) int_0^inf rho^2 (rho/sinh rho)^{2n} drho
    lhs, _ = quad(lambda s: 4 * math.pi * s * s * volume(SPEC1, [s, 0, 0]), 0, 40)
    rhs, _ = quad(lambda r: (math.pi / 2) * r**4 / math.sinh(r) ** 2, 1e-12, 40)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    # and for n=1 the inner integral is pi^4/30 (zeta series)
    assert lhs == pytest.approx((4 * math.pi / 8) * math.pi**4 / 30, rel=1e-9)


def test_diagonal_value_n1():
    kv = heat_kernel_point(SPEC1, 1.0, [0] * 4, [0] * 3)
    assert abs(kv.value - 1.0 / 120.0) <= max(kv.err_estimate, 1e-12)


@pytest.mark.parametrize("spec", [SPEC1, SPEC2])
def test_exact_homogeneity(spec):
    power = 2 * spec.n + 3
    vals = []
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        kv = heat_kernel_point(spec, t, [0] * spec.m, [0] * 3)
        vals.append((kv.value * t**power, kv.err_estimate * t**power))
    ref = vals[2][0]
    for v, e in vals:
        assert abs(v - ref) <= 2 * (e + vals[2][1]) + 1e-13


def test_dilation_covariance():
    rng = np.random.default_rng(7)
    Q = SPEC1.m + 2 * SPEC1.r  # homogeneous dimension
    for _ in range(5):
        x = rng.normal(size=4) * 0.8
        z = rng.normal(size=3) * 0.8
        t = 0.9
        lam = float(rng.uniform(0.5, 2.0))
        lhs = heat_kernel_point(SPEC1, lam * lam * t, lam * x, lam * lam * z)
        rhs = heat_kernel_point(SPEC1, t, x, z)
        assert lhs.value == pytest.approx(lam ** (-Q) * rhs.value, rel=1e-8)


def test_rotation_symmetry():
    # value depends only on (|x|, |z|)
    x = np.array([0.7, -0.1, 0.4, 0.2])
    z = np.array([0.3, 0.5, -0.2])
    rx, rz = np.linalg.norm(x), np.linalg.norm(z)
    a = heat_kernel_point(SPEC1, 1.1, x, z).value
    b = heat_kernel_point(SPEC1, 1.1, [rx, 0, 0, 0], [0, 0, rz]).value
    assert a == pytest.approx(b, rel=1e-9)


def test_positivity_sampled():
    rng = np.random.default_rng(3)
    for _ in range(15):
        x = rng.normal(size=4) * 1.5
        z = rng.normal(size=3) * 2.0
        assert heat_kernel_point(SPEC1, 0.8, x, z).value > 0


def test_normalization_mass_one():
    mass, err = normalization_integral(SPEC1, 1.0)
    assert abs(mass - 1.0) < 1e-8
    mass2, _ = normalization_integral(SPEC2, 0.7)
    assert abs(mass2 - 1.0) < 1e-7


def test_marginal_moments_against_closed_forms():
    for spec, t in ((SPEC1, 1.0), (SPEC1, 0.5), (SPEC2, 0.8)):
        mom = kernel_marginal_moments(spec, t)
        ex2, _ = mom["Exx_diag"]
        ez2, _ = mom["Ezz_diag"]
        assert ex2 == pytest.approx(2.0 * t, rel=1e-6)
        # vertical variance of the horizontal diffusion: 32 n t^2
        assert ez2 == pytest.approx(32.0 * spec.n * t * t, rel=1e-5)


def test_moment_grids_built_once(monkeypatch):
    """Each entry builds the t = 1 moment table once, and the three entries
    agree bit for bit."""
    import qcheat.kernel as kernel_mod

    calls = []
    real_table = kernel_mod._unit_time_moments

    def counting_table(*args):
        calls.append(args)
        return real_table(*args)

    monkeypatch.setattr(kernel_mod, "_unit_time_moments", counting_table)
    mom = kernel_marginal_moments(SPEC1, 1.0)
    assert len(calls) == 1
    together = radial_expectation(SPEC1, 1.0)
    assert [mom["mass"], mom["Exx_diag"], mom["Ezz_diag"]] == together
    assert normalization_integral(SPEC1, 1.0) == together[0]
    assert len(calls) == 3


def _moment_closed_forms(spec, t):
    """Mass 1, E[x_a^2] = 2t and E[z_i^2] = 32 n t^2 of the flat kernel."""
    return [1.0, 2.0 * t, 32.0 * spec.n * t * t]


@pytest.mark.parametrize("t", [1.0, 0.5, 1e-5, 1e-20, 1e-60])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_moments_match_closed_forms_at_every_t(n, t):
    """Within the error at every t, and the error stays below 1e-9 of the value."""
    spec = make_quaternionic_spec(n)
    for (val, err), exact in zip(radial_expectation(spec, t), _moment_closed_forms(spec, t)):
        assert abs(val - exact) <= err
        assert err <= 1e-9 * exact


def test_exp_tail_and_truncation_radius():
    for const, mpow, rate, R in ((1.0, 4, 2.0, 8.0), (3.5, 6, 1.3, 20.0)):
        ref, _ = quad(lambda r: r**mpow * math.exp(-rate * r), R, math.inf)
        assert _exp_tail(const, mpow, rate, R) == pytest.approx(const * ref, rel=1e-10)
    bound = lambda R: _exp_tail(1.0, 4, 2.0, R)
    R, tail = _truncation_radius(bound, 8.0, 1e-12, 300.0)
    assert tail == bound(R) <= 1e-12 < bound(R - 4.0)
    assert (R - 8.0) % 4.0 == 0.0
    # the cap stops the walk even when the tolerance is out of reach
    assert _truncation_radius(bound, 8.0, 0.0, 20.0) == (20.0, bound(20.0))


def test_truncation_radius_per_row_matches_the_walk():
    # small rates need radii past the first eight candidates; 0.05 hits the cap
    rates = np.array([0.05, 0.3, 2.0, 9.0])
    R, tail = _truncation_radius(lambda R: _exp_tail(1.0, 4, rates, R), 8.0, 1e-12, 300.0)
    for i, rate in enumerate(rates):
        bound = lambda R: _exp_tail(1.0, 4, rate, R)
        walk = 8.0
        while bound(walk) > 1e-12 and walk < 300.0:
            walk += 4.0
        assert R[i] == walk
        assert (R[i], tail[i]) == tuple(v[0] for v in _truncation_radius(bound, 8.0, 1e-12, 300.0))
    assert R[0] == 300.0 and R[1] > 8.0 + 7 * 4.0


# the two-branch forms the special functions had before _series_where: both
# branches on every entry, one picked by np.where, with 1 standing in for x
# at the small entries of the direct form
def _ref_rho_coth(rho):
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-4
    safe = np.where(small, 1.0, rho)
    return np.where(small, 1.0 + rho * rho / 3.0, safe / np.tanh(safe))


def _ref_rho_over_sinh_pow(rho, two_n):
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-8
    safe = np.where(small, 1.0, rho)
    return np.where(small, 1.0 - rho * rho / 6.0, safe / np.sinh(safe)) ** two_n


def _ref_j0(k):
    small = np.abs(k) < 1e-4
    safe = np.where(small, 1.0, k)
    k2 = k * k
    return np.where(small, 1.0 - k2 / 6.0 + k2 * k2 / 120.0, np.sin(safe) / safe)


def _special_grid(negative_huge):
    tiny = [5e-324, 1e-300, 1e-20, 1e-9]
    cuts = [np.nextafter(c, d) for c in (1e-8, 1e-4, 0.05) for d in (0.0, c, 1.0)]
    plain = [5e-5, 0.01, 0.03, 0.3, 0.9, 1.0, 7.5, 40.0, 400.0, 1000.0, 1e200]
    vals = [0.0] + tiny + cuts + plain
    negative = [-v for v in tiny + cuts + [0.3, 7.5]] + ([-400.0, -1e200] if negative_huge else [])
    return np.array(vals + negative)


@pytest.mark.parametrize(
    "new, ref, negative_huge",
    [
        (_rho_coth, _ref_rho_coth, False),
        (lambda r: _rho_over_sinh_pow(r, 2), lambda r: _ref_rho_over_sinh_pow(r, 2), False),
        (lambda r: _rho_over_sinh_pow(r, 6), lambda r: _ref_rho_over_sinh_pow(r, 6), False),
        (_j0, _ref_j0, True),
    ],
    ids=["rho_coth", "rho_over_sinh_pow-2", "rho_over_sinh_pow-6", "j0"],
)
def test_special_functions_same_bits_as_two_branch_forms(new, ref, negative_huge):
    """Same bits as the two-branch forms at 0, +-tiny, each switch point +-1 ulp,
    negative k for the j's, k = 1e200 (k^2 overflows), and 0-d inputs; the
    new forms raise no RuntimeWarning (an error under the test filter)."""
    grid = _special_grid(negative_huge)
    inputs = [grid, grid.reshape(-1, 1)] + [np.array(v) for v in grid] + [float(v) for v in grid]
    for x in inputs:
        got = new(x)
        with np.errstate(all="ignore"):  # the two-branch forms overflow at 1e200
            want = ref(x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want), x


def _mp_spherical_bessel(name, k):
    """j1(k), j1(k) / k or j2(k) at 50 digits, from the half-integer Bessel
    function at |k| and j_l(-k) = (-1)^l j_l(k)."""
    import mpmath

    l = 2 if name == "j2" else 1
    k = mpmath.mpf(k)
    if not k:
        return mpmath.mpf(1) / 3 if name == "j1_over_k" else mpmath.mpf(0)
    j = mpmath.sqrt(mpmath.pi / (2 * abs(k))) * mpmath.besselj(l + 0.5, abs(k)) * mpmath.sign(k) ** l
    return j / k if name == "j1_over_k" else j


@pytest.mark.parametrize(
    "name, pick, rel",
    [
        ("j1", lambda k, j1_k, j2: k * j1_k, 1e-15),
        ("j1_over_k", lambda k, j1_k, j2: j1_k, 1e-15),
        ("j2", lambda k, j1_k, j2: j2, 8e-15),
    ],
    ids=["j1", "j1_over_k", "j2"],
)
def test_spherical_bessel_pair_matches_mpmath(name, pick, rel):
    """j1, j1 / k and j2 from _j1_over_k_and_j2 against 50-digit mpmath on the
    special-function grid plus the series switch at |k| = 1 +- 1 ulp: within
    rel relative where |k| < 4 (and the value is a normal double), and within
    4.5e-16 max(1, |k|) absolute everywhere.  0-d inputs keep their shape,
    and no RuntimeWarning (an error under the test filter) is raised."""
    import mpmath

    cuts = [np.nextafter(1.0, d) for d in (0.0, 2.0)] + [1.0]
    grid = np.concatenate([_special_grid(True), cuts, [-c for c in cuts], [2.5, -3.9, 12.0]])
    got = pick(grid, *_j1_over_k_and_j2(grid))
    with mpmath.workdps(50):
        for k, v in zip(grid, got):
            ref = _mp_spherical_bessel(name, k)
            err = abs(mpmath.mpf(float(v)) - ref)
            assert err <= 4.5e-16 * max(1.0, abs(k)), k
            if abs(k) < 4.0 and abs(ref) >= np.finfo(float).tiny:
                assert err <= rel * abs(ref), k
    # a column, 0-d arrays and floats: the same shape as the input, the same bits
    col = grid.reshape(-1, 1)
    pair = _j1_over_k_and_j2(col)
    assert pair[0].shape == pair[1].shape == col.shape
    assert np.array_equal(pick(col, *pair).ravel(), got)
    for k, v in zip(grid, got):
        for x in (np.array(k), float(k)):
            pair = _j1_over_k_and_j2(x)
            assert np.shape(pair[0]) == np.shape(pair[1]) == ()
            assert pick(x, *pair) == v


def test_derivatives_match_finite_differences():
    x0 = np.array([0.3, -0.2, 0.1, 0.4])
    z0 = np.array([0.5, -0.3, 0.2])
    t, h = 0.8, 1e-4

    def p(x, z):
        return heat_kernel_point(SPEC1, t, x, z).value

    cases = [
        ((0, 0, 0, 0, 1, 0, 0), None),
        ((1, 1, 0, 0, 0, 0, 0), None),
        ((0, 0, 0, 0, 1, 1, 0), None),
        ((2, 0, 0, 0, 0, 0, 0), None),
    ]
    d, _ = cases[0]
    v = heat_kernel_point(SPEC1, t, x0, z0, derivative=d).value
    zp, zm = z0.copy(), z0.copy()
    zp[0] += h
    zm[0] -= h
    assert v == pytest.approx((p(x0, zp) - p(x0, zm)) / (2 * h), abs=5e-9)

    d, _ = cases[1]
    v = heat_kernel_point(SPEC1, t, x0, z0, derivative=d).value

    def pxy(a, b):
        xx = x0.copy()
        xx[0] += a
        xx[1] += b
        return p(xx, z0)

    fd = (pxy(h, h) - pxy(h, -h) - pxy(-h, h) + pxy(-h, -h)) / (4 * h * h)
    assert v == pytest.approx(fd, abs=5e-8)

    d, _ = cases[2]
    v = heat_kernel_point(SPEC1, t, x0, z0, derivative=d).value

    def pzz(a, b):
        zz = z0.copy()
        zz[0] += a
        zz[1] += b
        return p(x0, zz)

    fd = (pzz(h, h) - pzz(h, -h) - pzz(-h, h) + pzz(-h, -h)) / (4 * h * h)
    assert v == pytest.approx(fd, abs=5e-8)

    d, _ = cases[3]
    v = heat_kernel_point(SPEC1, t, x0, z0, derivative=d).value
    xp, xm = x0.copy(), x0.copy()
    xp[0] += h
    xm[0] -= h
    fd = (p(xp, z0) - 2 * p(x0, z0) + p(xm, z0)) / (h * h)
    assert v == pytest.approx(fd, abs=5e-7)


def test_heat_equation_residual():
    # dp/dt = sum_a Xtilde_a^2 p pins the kernel normalization to the generator
    spec = SPEC1
    J = spec.J_float()
    x0 = np.array([0.4, -0.3, 0.2, 0.1])
    z0 = np.array([0.6, -0.2, 0.3])
    t = 0.7
    m = spec.m

    def deriv(d):
        return heat_kernel_point(spec, t, x0, z0, derivative=tuple(d)).value

    tot = 0.0
    for a in range(m):
        d = [0] * 7
        d[a] = 2
        tot += deriv(d)
    for a in range(m):
        for i in range(3):
            c = 2.0 * sum(J[i][b][a] * x0[b] for b in range(m))
            if c:
                d = [0] * 7
                d[a] = 1
                d[4 + i] = 1
                tot += 2.0 * c * deriv(d)
    for i in range(3):
        for j in range(3):
            cij = 4.0 * sum(
                sum(J[i][b][a] * x0[b] for b in range(m))
                * sum(J[j][c][a] * x0[c] for c in range(m))
                for a in range(m)
            )
            if cij:
                d = [0] * 7
                d[4 + i] += 1
                d[4 + j] += 1
                tot += cij * deriv(d)
    ht = 1e-5
    dpdt = (
        heat_kernel_point(spec, t + ht, x0, z0).value
        - heat_kernel_point(spec, t - ht, x0, z0).value
    ) / (2 * ht)
    assert dpdt == pytest.approx(tot, rel=1e-6)


_BAD_QUATERNIONS = GroupSpec(J=(SPEC1.J[0], SPEC1.J[1], tuple(tuple(-v for v in row) for row in SPEC1.J[2])))


@pytest.mark.parametrize(
    "spec",
    [GroupSpec(J=(((0, 1), (-1, 0)),)), _BAD_QUATERNIONS],
    ids=["heisenberg", "m4-r3-triple-product-plus-id"],
)
def test_kernel_entries_refuse_non_quaternionic_spec(monkeypatch, spec):
    import qcheat.kernel as kernel_mod

    def no_work(*args):
        raise AssertionError("worked before validating the spec")

    monkeypatch.setattr(kernel_mod, "_query_rows", no_work)
    monkeypatch.setattr(kernel_mod, "_unit_time_moments", no_work)
    assert not spec.quaternionic
    x, z = [0.0] * spec.m, [0.0] * 3
    with pytest.raises(ValueError, match="quaternionic spec"):
        heat_kernel_point(spec, 1.0, x, z)
    with pytest.raises(ValueError, match="quaternionic spec"):
        batch_evaluate(spec, [[1.0, *x, *z]])
    with pytest.raises(ValueError, match="quaternionic spec"):
        kernel_marginal_moments(spec, 1.0)


@pytest.mark.parametrize("t", [-1.0, 0.0, math.inf, math.nan])
def test_radial_expectation_rejects_bad_time(t):
    with pytest.raises(ValueError, match="time"):
        kernel_marginal_moments(SPEC1, t)


# pyproject turns every RuntimeWarning into an error, so these also check that none is raised
@pytest.mark.parametrize(
    "spec, t", [(SPEC1, 1e-200), (SPEC1, 1e-64), (SPEC1, 1e100), (SPEC2, 1e50), (SPEC1, 1e200), (SPEC1, 1e-151)]
)
def test_radial_expectation_out_of_range_time_raises_overflow(spec, t):
    """E[z_i^2] = 32 n t^2 leaves the double range at t = 1e-200 and 1e200, and
    at t = 1e-151 its error does (about 1e-311), so those raise by name.
    1e-64, 1e100 (n = 1) and 1e50 (n = 2) raised while the range check was on
    the prefactor (4 pi t)^(2n+3); the moments scale from t = 1 now, so there
    they are in range and give the closed forms within their errors."""
    if t in (1e-200, 1e200, 1e-151):
        with pytest.raises(OverflowError, match=re.escape("E[z_i^2] of p(t, 0, .) at t = %r" % t)):
            kernel_marginal_moments(spec, t)
        return
    for (val, err), exact in zip(radial_expectation(spec, t), _moment_closed_forms(spec, t)):
        assert abs(val - exact) <= err


def test_radial_expectation_non_finite_estimate_raises_overflow():
    # at t = 1e155 the t = 1 table is finite, and t^2 times it is not
    with pytest.raises(OverflowError, match=re.escape("at t = 1e+155 is out of floating-point range: inf")):
        radial_expectation(SPEC1, 1e155)


def test_query_validation():
    with pytest.raises(ValueError, match="time must be positive"):
        heat_kernel_point(SPEC1, -1.0, [0] * 4, [0] * 3)
    with pytest.raises(ValueError, match="weighted order 4"):
        heat_kernel_point(SPEC1, 1.0, [0] * 4, [0] * 3, derivative=(1,) * 7)
    for tol in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            heat_kernel_point(SPEC1, 1.0, [0] * 4, [0] * 3, tol=tol)


@pytest.mark.parametrize(
    "spec, x, z, derivative",
    [
        (SPEC1, [0.5, 0.0, 0.0], [0.0] * 3, ()),  # x one short
        (SPEC1, [0.5, 0.0, 0.0, 0.0, 0.0], [0.0] * 3, ()),  # x one long
        (SPEC1, [0.5, 0.0, 0.0, 0.0], [0.0, 0.0], ()),  # z one short
        (SPEC1, [0.5, 0.0, 0.0, 0.0], [0.0] * 4, ()),  # z one long
        (SPEC2, [0.5, 0.0, 0.0, 0.0], [0.0] * 3, ()),  # an n = 1 point at n = 2
        (SPEC1, [0.5, 0.0, 0.0, 0.0], [0.0] * 3, (1, 0, 0, 0, 0, 0)),  # derivative one short
        (SPEC1, [0.5, 0.0, 0.0, 0.0], [0.0] * 3, (1, 0, 0, 0, 0, 0, 0, 0)),  # derivative one long
    ],
)
def test_point_lengths_validated(spec, x, z, derivative):
    with pytest.raises(ValueError, match="expected|length"):
        heat_kernel_point(spec, 1.0, x, z, derivative=derivative)


def test_tolerance_failure_carries_best_estimate(monkeypatch):
    import qcheat.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "_MAX_EVALS", 120)
    with pytest.raises(ToleranceError) as exc:
        heat_kernel_point(SPEC1, 1.0, [3.0, 0, 0, 0], [40.0, 0, 0], tol=1e-15)
    assert exc.value.value is not None
    assert exc.value.err is not None


def test_off_identity_base_value():
    # p(t, g, h) = p(t, 0, g^{-1} h) is symmetric in (g, h): through the group
    # law, p(t, 0, g^{-1} h) = p(t, 0, h^{-1} g) for an off-identity pair
    g = pt([0.2, 0.1, -0.3, 0.4], [0.5, 0.0, -0.1])
    h = pt([0.6, -0.2, 0.1, 0.0], [0.2, 0.3, 0.4])
    forward = group_mul(SPEC1, group_inverse(g), h)
    backward = group_mul(SPEC1, group_inverse(h), g)
    assert forward != backward
    a = heat_kernel_point(SPEC1, 0.9, forward.x, forward.z)
    b = heat_kernel_point(SPEC1, 0.9, backward.x, backward.z)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


def test_batch_evaluate_row_errors():
    rows = [
        [1.0] + [0.0] * 7,
        [-1.0] + [0.0] * 7,
        [1.0, 0.1],
        [1.0] + [0.0] * 7 + [5.0],  # one value too many
        [1e-300] + [0.0] * 7,  # (4 pi t)^5 underflows: the value is out of range
    ]
    out = batch_evaluate(SPEC1, rows)
    assert out[0]["ok"] and out[0]["value"] == pytest.approx(1 / 120, abs=1e-10)
    assert not out[1]["ok"] and out[1]["kind"] == "input"
    assert out[2] == out[3] == {"ok": False, "kind": "input", "error": "expected 7 coordinates"}
    assert out[4] == {"ok": False, "kind": "numeric", "error": "kernel value or error bound is out of floating-point range"}


def test_batch_evaluate_every_bad_row_kind_between_valid_rows():
    # every row is checked as the one-row-at-a-time check did: float() on each
    # value first, then the length, then t > 0, then finiteness
    nan, inf = math.nan, math.inf
    rows = [
        [1.0] + [0.0] * 7,
        [1.0, "abc"] + [0.0] * 6,  # a value float() rejects
        ["0.5", "0.1", " 0 ", "0", "0", "0", "0", "1_0"],  # values float() takes
        [1.0, 0.1],
        [1.0] + [0.0] * 8,
        [1.0, "x"],  # too short, and float() rejects a value: its message wins
        [0.0] + [0.1] * 7,
        [nan] + [0.0] * 7,
        [-inf] + [0.0] * 7,
        [inf] + [0.0] * 7,
        [1.0, 0.0, nan] + [0.0] * 5,
        [1.0] + [0.0] * 6 + [-inf],
        [1e-300] + [0.0] * 7,  # valid input, out of floating-point range
        (0.7, 0.3, -0.2, 0.1, 0.4, 1.0, -0.5, 0.25),
    ]
    out = batch_evaluate(SPEC1, rows)
    valid = [_single(SPEC1, [float(v) for v in rows[i]]) for i in (0, 2, 13)]
    short = {"ok": False, "kind": "input", "error": "expected 7 coordinates"}
    positive = {"ok": False, "kind": "input", "error": "time must be positive"}
    finite = {"ok": False, "kind": "input", "error": "time and coordinates must be finite"}
    assert out == [
        valid[0],
        {"ok": False, "kind": "input", "error": "could not convert string to float: 'abc'"},
        valid[1],
        short,
        short,
        {"ok": False, "kind": "input", "error": "could not convert string to float: 'x'"},
        positive,
        positive,
        positive,
        finite,
        finite,
        finite,
        {"ok": False, "kind": "numeric", "error": "kernel value or error bound is out of floating-point range"},
        valid[2],
    ]
    assert valid[1]["value"] == 1.0010296807667788e-06


# (spec, t, x, z, derivative) -> n_evals of the adaptive policy; these counts
# predate the row-batched engine, which must refine every row the same way
POLICY_CASES = [
    (SPEC1, 1.0, [0.0] * 4, [0.0] * 3, (), 135),  # diagonal, n = 1
    (SPEC2, 0.5, [0.0] * 8, [0.0] * 3, (), 120),  # diagonal, n = 2
    (SPEC1, 0.7, [0.4, -1.1, 0.3, 0.8], [0.9, -2.0, 1.4], (), 150),  # bulk
    (SPEC1, 0.1, [0.0] * 4, [0.0, 0.0, 30.0], (), 7050),  # far: |z| / t = 300
    (SPEC2, 1.0, [6.0] + [0.0] * 7, [0.5, 0.0, -0.5], (), 90),  # |x| = 6
    (SPEC1, 1.0, [0.3, -0.2, 0.5, 0.1], [0.4, 0.2, -0.3], (1, 0, 1, 0, 0, 0, 1), 105),
]


@pytest.mark.parametrize("spec, t, x, z, deriv, n_evals", POLICY_CASES)
def test_adaptive_policy_eval_counts_pinned(spec, t, x, z, deriv, n_evals):
    assert heat_kernel_point(spec, t, x, z, derivative=deriv).n_evals == n_evals


def _mixed_rows(spec):
    """Diagonal, bulk, far (t = 0.1, |z| = 30) and |x| = 6 rows, plus two bad rows."""
    m = spec.m
    rng = np.random.default_rng(11)
    rows = [[t] + [0.0] * (m + 3) for t in (0.3, 1.0, 2.5)]
    for t in (0.4, 0.9, 1.7):
        rows.append([t, *rng.normal(0.0, math.sqrt(2 * t), m), *rng.normal(0.0, 2 * t, 3)])
    rows.append([0.1] + [0.0] * m + [0.0, 30.0, 0.0])
    rows.append([0.1, *rng.normal(0.0, 0.3, m), 18.0, -24.0, 0.0])
    rows.append([1.0, 6.0] + [0.0] * (m - 1) + [0.5, 0.0, -0.5])
    rows.append([0.8] + [0.0] * (m - 1) + [-6.0, 0.0, 1.0, 2.0])
    rows.append([0.0] + [0.1] * (m + 3))  # t <= 0
    rows.append([1.0, 0.1])  # too short
    return rows


def _single(spec, row, tol=1e-9):
    m = spec.m
    kv = heat_kernel_point(spec, row[0], row[1 : m + 1], row[m + 1 : m + 4], tol=tol)
    return {"ok": True, "value": kv.value, "err": kv.err_estimate}


@pytest.mark.parametrize("spec", [SPEC1, SPEC2])
def test_batch_rows_match_single_queries_bit_for_bit(spec):
    rows = _mixed_rows(spec)
    out = batch_evaluate(spec, rows)
    for row, res in zip(rows[:-2], out):
        assert res == _single(spec, row)
    assert out[-2] == {"ok": False, "kind": "input", "error": "time must be positive"}
    assert out[-1] == {"ok": False, "kind": "input", "error": "expected %d coordinates" % (spec.m + 3)}


def test_batch_rows_independent_of_order_and_blocks(monkeypatch):
    import qcheat.kernel as kernel_mod

    rows = _mixed_rows(SPEC1)
    ref = batch_evaluate(SPEC1, rows)
    order = np.random.default_rng(5).permutation(len(rows))
    for block in (1, 3, 4):
        monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", block)
        out = batch_evaluate(SPEC1, [rows[i] for i in order])
        assert [out[j] for j in np.argsort(order)] == ref


def test_batch_failing_row_leaves_neighbours_unchanged(monkeypatch):
    import qcheat.kernel as kernel_mod

    # 600 evaluations: the far row's oscillation alone needs more panels
    monkeypatch.setattr(kernel_mod, "_MAX_EVALS", 600)
    rows = _mixed_rows(SPEC1)[:7]
    far = 6
    out = batch_evaluate(SPEC1, rows, tol=1e-9)
    assert not out[far]["ok"] and "evaluations" in out[far]["error"]
    with pytest.raises(ToleranceError):
        _single(SPEC1, rows[far], tol=1e-9)
    for i, row in enumerate(rows):
        if i != far:
            assert out[i] == _single(SPEC1, row, tol=1e-9)
    alone = batch_evaluate(SPEC1, rows[:far], tol=1e-9)
    assert out[:far] == alone


def test_batch_rejects_non_finite_rows():
    rows = [[1.0] + [0.0] * 7, [float("nan")] + [0.0] * 7, [1.0, 0.0, 0.0, float("inf")] + [0.0] * 4]
    out = batch_evaluate(SPEC1, rows)
    assert out[0]["ok"]
    assert [r["ok"] for r in out[1:]] == [False, False]
    with pytest.raises(ValueError):
        heat_kernel_point(SPEC1, 1.0, [0.0] * 4, [0.0, float("inf"), 0.0])


def _per_row(res):
    """A _query_rows result as a list with one entry per row: its KernelValue or its ToleranceError."""
    value, err, n_evals, failed = res
    rows = zip(value.tolist(), err.tolist(), n_evals.tolist())
    return [failed[r] if r in failed else KernelValue(*row) for r, row in enumerate(rows)]


def _query_points(spec, n_rows=70):
    """Rows of mixed t; every seventh has x_1 = 0 exactly, so the terms with
    a power of x_1 drop out there, and row 5 is the origin."""
    rng = np.random.default_rng(23)
    t = rng.choice([0.3, 0.7, 1.0, 1.6], size=n_rows)
    x = rng.normal(0.0, 1.0, (n_rows, spec.m)) * np.sqrt(2.0 * t)[:, None]
    z = rng.normal(0.0, 1.0, (n_rows, 3)) * 2.0 * t[:, None]
    x[::7, 0] = 0.0
    x[5], z[5] = 0.0, 0.0
    return t, x, z


def _deriv(spec, *names):
    """Multi-index of target derivatives named like "x1" or "z2"."""
    idx = [int(name[1:]) - 1 + (spec.m if name[0] == "z" else 0) for name in names]
    return tuple(idx.count(c) for c in range(spec.m + 3))


QUERY_DERIVS = [("x1", "x1"), ("x1", "x2"), ("z1",), ("z1", "z2"), ("x1", "x2", "z1")]


def _radial_quad(n, t, rx, rz):
    """p(t, 0, (x, z)) at |x| = rx, |z| = rz by scipy's quad of the radial integral, with its abserr.

    p = 8 (16n)^{3/2} / (4 pi t)^{2n+3} int_0^inf rho^2/8 (rho / sinh rho)^{2n}
        exp(-rho coth(rho) rx^2 / 4t) 4 pi j0(rho rz / 4t) drho,
    written out here with math alone; past rho = 60 the integrand is below 1e-40.
    """
    u, zc = rx * rx / (4.0 * t), rz / (4.0 * t)

    def f(rho):
        k = zc * rho
        return (
            rho * rho / 8.0
            * (rho / math.sinh(rho)) ** (2 * n)
            * math.exp(-rho / math.tanh(rho) * u)
            * 4.0 * math.pi * (math.sin(k) / k if k else 1.0)
        )

    val, abserr = quad(f, 0.0, 60.0, epsabs=1e-16, epsrel=1e-13, limit=400)
    pre = 8.0 * (16.0 * n) ** 1.5 / (4.0 * math.pi * t) ** (2 * n + 3)
    return pre * val, pre * abserr


@pytest.mark.parametrize("t", [1.0, 0.3])
@pytest.mark.parametrize("spec", [SPEC1, SPEC2])
def test_query_rows_match_radial_quad(spec, t):
    """Plain off-diagonal rows agree with an independent scipy quadrature of
    the radial integral within the two errors."""
    rx = np.array([0.0, 0.7, 2.0, 5.0])
    rz = np.array([0.0, 0.5, 3.0, 9.0]) * t
    x = np.zeros((16, spec.m))
    x[:, 0] = np.repeat(rx, 4)
    z = np.zeros((16, 3))
    z[:, 0] = np.tile(rz, 4)
    rows = _per_row(_query_rows(spec, np.full(16, t), x, z, (), 1e-14))  # absolute floor 1e-17
    for r, row in enumerate(rows):
        ref, ref_err = _radial_quad(spec.n, t, rx[r // 4], rz[r % 4])
        assert abs(row.value - ref) <= row.err_estimate + ref_err


@pytest.mark.parametrize("names", QUERY_DERIVS)
@pytest.mark.parametrize("spec", [SPEC1, SPEC2])
def test_query_rows_match_single_queries_bit_for_bit(monkeypatch, spec, names):
    import qcheat.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", 32)
    t, x, z = _query_points(spec)
    assert len(t) > 2 * kernel_mod._ROW_BLOCK  # three blocks, the last one short
    d = _deriv(spec, *names)
    out = _per_row(_query_rows(spec, t, x, z, d, 1e-9))
    assert len(out) == len(t)
    for r in range(len(t)):
        assert out[r] == heat_kernel_point(spec, t[r], x[r], z[r], derivative=d)
    if names == ("x1", "x2"):
        # the one term, x_1 x_2 a(rho)^2 / 4t^2, drops out where x_1 = 0
        assert all(out[r] == KernelValue(0.0, 0.0, 0) for r in range(0, len(t), 7))


@pytest.mark.parametrize("names", [("z1", "z2"), ("x1", "x2")])
def test_underflowing_derivative_row_is_out_of_range(names):
    # at t = 1e200 every coefficient of the row underflows to 0, and so does
    # the prefactor: the row fails as the plain kernel at the point does
    x, z = [0.3, 0.2, 0.0, 0.0], [0.1, 0.2, 0.3]
    for d in ((), _deriv(SPEC1, *names)):
        with pytest.raises(ToleranceError, match="out of floating-point range"):
            heat_kernel_point(SPEC1, 1e200, x, z, derivative=d)


def test_derivative_row_lost_below_the_double_range_is_out_of_range():
    # x1 x2 ~ 1e-400 underflows to 0 in the only coefficient of dx1 dx2 at
    # the origin's z, at an ordinary t: the row fails instead of reading 0 +- 0
    with pytest.raises(ToleranceError, match="out of floating-point range"):
        heat_kernel_point(SPEC1, 1.0, [1e-200, 1e-200, 0, 0], [0, 0, 0], derivative=_deriv(SPEC1, "x1", "x2"))


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 0.0], [0.0, 1e-200, 0.0, 0.0]])
def test_derivative_row_zero_on_a_zero_coordinate_stays_exact(x):
    # x1 = 0 makes the coefficient exactly 0 (odd in x1), not an underflow
    for names in (("x1",), ("x1", "x2")):
        res = heat_kernel_point(SPEC1, 1.0, x, [0, 0, 0], derivative=_deriv(SPEC1, *names))
        assert (res.value, res.err_estimate, res.n_evals) == (0.0, 0.0, 0)


def test_rows_known_out_of_range_skip_quadrature(monkeypatch):
    """Rows whose |x|^2 / 4t overflows, or whose prefactor leaves the double
    range (t = 1e200, t = 1e-300), fail as out of range before quadrature:
    only the other rows reach gk_rows, with the bits of their single queries."""
    import qcheat.kernel as kernel_mod

    sent = []
    real_rows = kernel_mod.gk_rows

    def counting_rows(*args):
        sent.append(len(args[1]))  # the rows' lower limits, one per row
        return real_rows(*args)

    monkeypatch.setattr(kernel_mod, "gk_rows", counting_rows)
    t, x, z = _query_points(SPEC1, 8)
    bad = [1, 4, 6]
    t[1], t[6] = 1e200, 1e-300
    x[4, 0] = 1e200
    for d in ((), _deriv(SPEC1, "z1"), _deriv(SPEC1, "x1", "x2")):
        sent.clear()
        out = _per_row(_query_rows(SPEC1, t, x, z, d, 1e-9))
        live = [r for r in range(len(t)) if r not in bad and not out[r] == KernelValue(0.0, 0.0, 0)]
        assert sum(sent) == len(live)
        for r in range(len(t)):
            if r in bad:
                assert isinstance(out[r], ToleranceError) and "out of floating-point range" in str(out[r])
            else:
                assert out[r] == heat_kernel_point(SPEC1, t[r], x[r], z[r], derivative=d)


def test_near_field_derivative_row_matches_mpmath():
    """d/dz1 d/dz2 p at n = 1, t = 1, x = (5, 0, 0, 0), z = (0.1, 0.1, 0),
    whose integrand takes j2 at k = |z| rho / 4 < 1 on most of its mass,
    within 1e-12 relative of a 30-digit mpmath quadrature of the radial form:
    p_z1z2 = prefac int_0^inf rho^2/8 (rho / sinh rho)^2 exp(-rho coth(rho) |x|^2 / 4)
             rho^2 / 16 4 pi u1 u2 j2(|z| rho / 4) drho, u = z / |z|."""
    import mpmath

    res = heat_kernel_point(SPEC1, 1.0, [5.0, 0, 0, 0], [0.1, 0.1, 0.0], derivative=_deriv(SPEC1, "z1", "z2"))
    with mpmath.workdps(30):
        zn = mpmath.sqrt(mpmath.mpf("0.02"))
        u1u2 = mpmath.mpf("0.01") / zn**2

        def f(rho):
            k = zn * rho / 4
            j2 = mpmath.sqrt(mpmath.pi / (2 * k)) * mpmath.besselj(2.5, k)
            w = (rho / mpmath.sinh(rho)) ** 2 * mpmath.exp(-rho * mpmath.coth(rho) * 25 / 4)
            return rho**2 / 8 * w * rho**2 / 16 * 4 * mpmath.pi * u1u2 * j2

        pre = 8 * mpmath.mpf(16) ** 1.5 / (4 * mpmath.pi) ** 5
        ref = pre * mpmath.quad(f, [0, 0.5, 1, 2, 4, 8, 16, 32])
        assert abs(res.value - ref) <= 1e-12 * abs(ref)


def test_query_rows_independent_of_order_and_blocks(monkeypatch):
    import qcheat.kernel as kernel_mod
    import qcheat.quadrature as quadrature_mod

    t, x, z = _query_points(SPEC1)
    order = np.random.default_rng(3).permutation(len(t))
    for names in (("x1", "x1"), ("x1", "x2", "z1")):
        d = _deriv(SPEC1, *names)
        ref = _per_row(_query_rows(SPEC1, t, x, z, d, 1e-9))
        for block in (1, 5, 64):
            monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", block)
            out = _per_row(_query_rows(SPEC1, t[order], x[order], z[order], d, 1e-9))
            assert [out[j] for j in np.argsort(order)] == ref
        # one block, streamed by gk_rows through a window of a few rows
        monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", len(t))
        monkeypatch.setattr(quadrature_mod, "_WINDOW", 16)
        out = _per_row(_query_rows(SPEC1, t[order], x[order], z[order], d, 1e-9))
        assert [out[j] for j in np.argsort(order)] == ref
        monkeypatch.undo()


def test_query_rows_failing_row_returns_its_error_alone(monkeypatch):
    import qcheat.kernel as kernel_mod

    # 600 evaluations: the far row's oscillation alone needs more panels
    monkeypatch.setattr(kernel_mod, "_MAX_EVALS", 600)
    t, x, z = _query_points(SPEC1, 6)
    far = 3
    t[far], x[far], z[far] = 0.1, 0.0, [0.0, 30.0, 0.0]
    d = _deriv(SPEC1, "z2")
    out = _per_row(_query_rows(SPEC1, t, x, z, d, 1e-9))
    assert isinstance(out[far], ToleranceError) and "evaluations" in str(out[far])
    with pytest.raises(ToleranceError):
        heat_kernel_point(SPEC1, t[far], x[far], z[far], derivative=d, tol=1e-9)
    for r in range(len(t)):
        if r != far:
            assert out[r] == heat_kernel_point(SPEC1, t[r], x[r], z[r], derivative=d, tol=1e-9)
    keep = [r for r in range(len(t)) if r != far]
    assert _per_row(_query_rows(SPEC1, t[keep], x[keep], z[keep], d, 1e-9)) == [out[r] for r in keep]
