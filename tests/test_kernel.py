"""Heat-kernel quadrature: spec examples, invariants, and the generator PDE."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qcheat.group import GroupPoint, make_quaternionic_spec, make_step_two_spec
from qcheat.kernel import (
    KernelQuery,
    QuadratureConfig,
    action_function,
    action_function_matrix,
    batch_evaluate,
    heat_kernel,
    heat_kernel_point,
    kernel_marginal_moments,
    _exp_tail,
    _truncation_radius,
    normalization_integral,
    radial_expectation,
    volume_element,
    volume_element_matrix,
)
from qcheat.quadrature import ToleranceError

SPEC1 = make_quaternionic_spec(1)
SPEC2 = make_quaternionic_spec(2)


def pt(x, z):
    return GroupPoint(x=tuple(float(v) for v in x), z=tuple(float(v) for v in z))


def test_action_function_trivials():
    h = pt([1.0, 2.0, -1.0, 0.5], [3.0, -1.0, 0.25])
    x2 = sum(v * v for v in h.x)
    assert action_function(SPEC1, [0, 0, 0], h) == pytest.approx(0.5 * x2)
    assert action_function(SPEC1, [0.3, -0.7, 0.2], pt([0] * 4, [0] * 3)) == 0
    phi = action_function(SPEC1, [0.3, -0.7, 0.2], h)
    assert phi.imag == pytest.approx(np.dot([0.3, -0.7, 0.2], h.z))


def test_action_real_part_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tau = rng.normal(size=3) * 3
        x = rng.normal(size=4)
        h = pt(x, rng.normal(size=3))
        phi = action_function(SPEC1, tau, h)
        assert phi.real >= 0.5 * np.dot(x, x) - 1e-12


def test_action_and_volume_match_matrix_route():
    rng = np.random.default_rng(1)
    for spec in (SPEC1, SPEC2):
        for _ in range(10):
            tau = rng.normal(size=3)
            h = pt(rng.normal(size=spec.m), rng.normal(size=3))
            assert action_function_matrix(spec, tau, h) == pytest.approx(
                action_function(spec, tau, h), abs=1e-10
            )
            assert volume_element_matrix(spec, tau) == pytest.approx(
                volume_element(spec, tau), abs=1e-12
            )


def test_matrix_route_on_generic_step_two_spec():
    heis = make_step_two_spec([[[0, 1], [-1, 0]]])
    w = volume_element_matrix(heis, [0.7])
    # eigenvalues of i*Omega are +-2*0.7: W = (1.4/sinh 1.4)
    assert w == pytest.approx(1.4 / math.sinh(1.4), abs=1e-12)
    phi = action_function_matrix(heis, [0.7], pt([1.0, 0.0], [0.5]))
    assert phi.real == pytest.approx(0.5 * 1.4 / math.tanh(1.4), abs=1e-12)


def test_volume_element_basics():
    assert volume_element(SPEC1, [0, 0, 0]) == 1.0
    rs = np.linspace(0.0, 5.0, 40)
    vals = [volume_element(SPEC1, [r, 0, 0]) for r in rs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_volume_element_integral_change_of_variables():
    # int_{R^3} W(tau) dtau = (4pi/8) int_0^inf rho^2 (rho/sinh rho)^{2n} drho
    lhs, _ = quad(lambda s: 4 * math.pi * s * s * volume_element(SPEC1, [s, 0, 0]), 0, 40)
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
    Q = SPEC1.Q
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
        assert mom["Ex"] == (0.0, 0.0) and mom["Ez"] == (0.0, 0.0)
        ex2, _ = mom["Exx_diag"]
        ez2, _ = mom["Ezz_diag"]
        assert ex2 == pytest.approx(2.0 * t, rel=1e-6)
        # vertical variance of the horizontal diffusion: 32 n t^2
        assert ez2 == pytest.approx(32.0 * spec.n * t * t, rel=1e-5)


def test_moment_grids_built_once(monkeypatch):
    """One fine and one coarse kernel table serve all three moment weights,
    and sharing them changes no bit of any weight's result."""
    import qcheat.kernel as kernel_mod

    calls = []
    real_grid = kernel_mod._kernel_grid

    def counting_grid(*args):
        calls.append(args)
        return real_grid(*args)

    monkeypatch.setattr(kernel_mod, "_kernel_grid", counting_grid)
    mom = kernel_marginal_moments(SPEC1, 1.0)
    assert len(calls) == 2
    weights = [
        lambda rx, rz: np.ones_like(rx * rz),
        lambda rx, rz: rx * rx / SPEC1.m,
        lambda rx, rz: rz * rz / 3.0,
    ]
    together = radial_expectation(SPEC1, 1.0, weights)
    alone = [radial_expectation(SPEC1, 1.0, [w])[0] for w in weights]
    assert together == alone
    assert [mom["mass"], mom["Exx_diag"], mom["Ezz_diag"]] == together
    assert normalization_integral(SPEC1, 1.0) == together[0]


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


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(t=-1.0, base=None, target=pt([0] * 4, [0] * 3))
    with pytest.raises(ValueError):
        heat_kernel_point(SPEC1, 1.0, [0] * 4, [0] * 3, derivative=(1,) * 7)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1)
    with pytest.raises(NotImplementedError):
        q = KernelQuery(
            t=1.0,
            base=pt([1, 0, 0, 0], [0, 0, 0]),
            target=pt([0] * 4, [0] * 3),
            derivative=(1, 0, 0, 0, 0, 0, 0),
        )
        heat_kernel(SPEC1, q)


def test_tolerance_failure_carries_best_estimate():
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_evals=120)
    with pytest.raises(ToleranceError) as exc:
        heat_kernel_point(SPEC1, 1.0, [3.0, 0, 0, 0], [40.0, 0, 0], cfg=cfg)
    assert exc.value.value is not None
    assert exc.value.err is not None


def test_off_identity_base_value():
    # p(t, g, h) = p(t, 0, g^{-1} h): shift both arguments
    g = pt([0.2, 0.1, -0.3, 0.4], [0.5, 0.0, -0.1])
    h = pt([0.6, -0.2, 0.1, 0.0], [0.2, 0.3, 0.4])
    q = KernelQuery(t=0.9, base=g, target=h)
    direct = heat_kernel(SPEC1, q).value
    from qcheat.group import group_inverse, group_mul

    shifted = group_mul(SPEC1, group_inverse(g), h)
    ref = heat_kernel(SPEC1, KernelQuery(t=0.9, base=None, target=shifted)).value
    assert direct == pytest.approx(ref, rel=1e-12)


def test_batch_evaluate_row_errors():
    rows = [
        [1.0] + [0.0] * 7,
        [-1.0] + [0.0] * 7,
        [1.0, 0.1],
    ]
    out = batch_evaluate(SPEC1, rows)
    assert out[0]["ok"] and out[0]["value"] == pytest.approx(1 / 120, abs=1e-10)
    assert not out[1]["ok"]
    assert not out[2]["ok"]


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


def _single(spec, row, cfg=None):
    m = spec.m
    kv = heat_kernel_point(spec, row[0], row[1 : m + 1], row[m + 1 : m + 4], cfg=cfg)
    return {"ok": True, "value": kv.value, "err": kv.err_estimate}


@pytest.mark.parametrize("spec", [SPEC1, SPEC2])
def test_batch_rows_match_single_queries_bit_for_bit(spec):
    rows = _mixed_rows(spec)
    out = batch_evaluate(spec, rows)
    for row, res in zip(rows[:-2], out):
        assert res == _single(spec, row)
    assert out[-2] == {"ok": False, "error": "time must be positive"}
    assert out[-1] == {"ok": False, "error": "expected %d coordinates" % (spec.m + 3)}


def test_batch_rows_independent_of_order_and_blocks(monkeypatch):
    import qcheat.kernel as kernel_mod

    rows = _mixed_rows(SPEC1)
    ref = batch_evaluate(SPEC1, rows)
    order = np.random.default_rng(5).permutation(len(rows))
    for block in (1, 3, 4):
        monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", block)
        out = batch_evaluate(SPEC1, [rows[i] for i in order])
        assert [out[j] for j in np.argsort(order)] == ref


def test_batch_failing_row_leaves_neighbours_unchanged():
    # 600 evaluations: the far row's oscillation alone needs more panels
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12, max_evals=600)
    rows = _mixed_rows(SPEC1)[:7]
    far = 6
    out = batch_evaluate(SPEC1, rows, cfg)
    assert not out[far]["ok"] and "evaluations" in out[far]["error"]
    with pytest.raises(ToleranceError):
        _single(SPEC1, rows[far], cfg)
    for i, row in enumerate(rows):
        if i != far:
            assert out[i] == _single(SPEC1, row, cfg)
    alone = batch_evaluate(SPEC1, rows[:far], cfg)
    assert out[:far] == alone


def test_batch_rejects_non_finite_rows():
    rows = [[1.0] + [0.0] * 7, [float("nan")] + [0.0] * 7, [1.0, 0.0, 0.0, float("inf")] + [0.0] * 4]
    out = batch_evaluate(SPEC1, rows)
    assert out[0]["ok"]
    assert [r["ok"] for r in out[1:]] == [False, False]
    with pytest.raises(ValueError):
        heat_kernel_point(SPEC1, 1.0, [0.0] * 4, [0.0, float("inf"), 0.0])
