"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qcheat.group import make_quaternionic_spec
from qcheat.invariants import (
    SpectrumFile,
    c0_zeta_series,
    compute_Cn,
    compute_c0,
    fit_heat_trace,
    spectral_extract,
    sphere_kappa,
)
from qcheat.kernel import heat_kernel_point, kernel_marginal_moments, normalization_integral
from qcheat.mc import SimConfig, check_moment_vanishing, semigroup_convolution_check, simulate_paths
from qcheat.popp import frame_data_from_spec, popp_B_matrix, popp_density
from qcheat.qc_expansion import MOMENT_LABELS, expansion_coefficients, reduce_c1
from qcheat.tensors import TensorSymbols


def _report(num, desc, ok, detail=""):
    line = "ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", desc)
    if detail:
        line += " [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_c0_exactness():
    start = time.time()
    v, err = compute_c0(1)
    oracle = c0_zeta_series(1)
    elapsed = time.time() - start
    ok = abs(v - 1.0 / 120.0) < 1e-10 and abs(oracle - 1.0 / 120.0) < 1e-12 and elapsed < 1.0
    _report(
        1,
        "c0(1) = 1/120 within 1e-10, zeta oracle within 1e-12, < 1 s",
        ok,
        "c0=%.14g oracle_diff=%.2e t=%.2fs" % (v, oracle - 1 / 120, elapsed),
    )


def test_criterion_02_two_path_consistency():
    start = time.time()
    ok = True
    details = []
    for n in (1, 2, 3):
        spec = make_quaternionic_spec(n)
        c0, c0_err = compute_c0(n)
        kv = heat_kernel_point(spec, 1.0, [0.0] * spec.m, [0.0] * 3)
        good = abs(c0 - kv.value) <= c0_err + kv.err_estimate + 1e-15
        ok = ok and good
        details.append("n=%d diff=%.2e" % (n, c0 - kv.value))
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report(2, "heat_kernel p(1,0,0) = compute_c0(n), n in {1,2,3}, < 10 s", ok, "; ".join(details))


def test_criterion_03_exact_homogeneity():
    start = time.time()
    ok = True
    details = []
    for n in (1, 2):
        spec = make_quaternionic_spec(n)
        power = 2 * n + 3
        vals = []
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            kv = heat_kernel_point(spec, t, [0.0] * spec.m, [0.0] * 3)
            vals.append((kv.value * t**power, kv.err_estimate * t**power))
        ref_v, ref_e = vals[2]
        spread = max(abs(v - ref_v) for v, _ in vals)
        budget = max(e + ref_e for _, e in vals) + 1e-13
        ok = ok and spread <= budget
        details.append("n=%d spread=%.2e" % (n, spread))
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report(3, "p(t,0,0) t^{2n+3} constant across t in [1/4,4], n in {1,2}, < 10 s", ok, "; ".join(details))


def test_criterion_04_normalization_and_semigroup():
    start = time.time()
    spec = make_quaternionic_spec(1)
    mass, mass_err = normalization_integral(spec, 1.0)
    norm_ok = abs(mass - 1.0) < 1e-6
    est, se, direct, direct_err = semigroup_convolution_check(
        spec, 1.0, 1.0, n_paths=3000, n_steps=300, seed=918273
    )
    semi_ok = abs(est - direct) < 3.0 * (se + direct_err)
    elapsed = time.time() - start
    ok = norm_ok and semi_ok and elapsed < 300.0
    _report(
        4,
        "mass(p(1)) = 1 within 1e-6; convolution identity at 0 within 3 sigma, < 5 min",
        ok,
        "mass-1=%.2e; conv diff=%.2e (3sig=%.2e) t=%.0fs" % (mass - 1, est - direct, 3 * (se + direct_err), elapsed),
    )


def test_criterion_05_popp():
    start = time.time()
    ok = True
    for n in range(1, 5):
        spec = make_quaternionic_spec(n)
        data = frame_data_from_spec(spec)
        B = popp_B_matrix(data)
        exact = all(B[i][j] == (16 * n if i == j else 0) for i in range(3) for j in range(3))
        dens = popp_density(data)
        ok = ok and exact and abs(dens - (16.0 * n) ** -1.5) < 1e-15 * (16.0 * n) ** -1.5 + 1e-18
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(5, "B = 16n Id exactly and density (16n)^{-3/2}, n in 1..4, < 1 s", ok, "t=%.2fs" % elapsed)


def test_criterion_06_expansion_lemma_reproduction():
    start = time.time()
    ok = True
    for n in (1, 2):
        spec = make_quaternionic_spec(n)
        try:
            expansion_coefficients(spec)
        except Exception as exc:  # any mismatch is a failure
            ok = False
            print("route mismatch at n=%d: %s" % (n, exc))
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _report(6, "frame inversion == closed-form expansion, term by term, n in {1,2}, < 30 s", ok, "t=%.1fs" % elapsed)


def test_criterion_07_c1_reduction():
    start = time.time()
    ok = True
    details = []
    for n in (1, 2):
        spec = make_quaternionic_spec(n)
        red = reduce_c1(spec)
        linear = all(sorted(a[0] for a in mono) == ["M", "kap"] for mono in red.result.terms)
        labels_ok = set(red.kappa_coefficients) <= set(MOMENT_LABELS)
        ok = ok and linear and labels_ok and not red.result.is_zero()
        details.append("n=%d classes=%d" % (n, len(red.kappa_coefficients)))
        torsion_only = TensorSymbols(spec, zero_curvature=True)
        red0 = reduce_c1(spec, torsion_only)
        ok = ok and red0.result.is_zero()
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(
        7,
        "reduce_c1 exactly linear in kappa (n in {1,2}); torsion-only reduces to 0, < 2 min",
        ok,
        "; ".join(details) + " t=%.1fs" % elapsed,
    )


def test_criterion_08_sphere_cross_check():
    start = time.time()
    ok = True
    details = []
    for n in (1, 2):
        cn, _ = compute_Cn(n)

        def integrand(y, n=n):
            ratio = (math.sinh(y) - y * math.cosh(y)) / (y * y * math.sinh(y))
            return (
                y ** (2 * n + 2)
                / math.sinh(y) ** (2 * n)
                * (4 * n * (n + 1) + 2 * n * (2 * n + 1) * ratio)
            )

        val, _ = quad(integrand, 1e-10, 60.0, limit=200)
        bw = (16.0 * n) ** 1.5 * val / (4.0 * math.pi) ** (2 * n + 2)
        rel = abs(cn * sphere_kappa(n) - bw) / bw
        ok = ok and rel < 1e-8
        details.append("n=%d rel=%.2e" % (n, rel))
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _report(8, "Cn * 16n(n+2) = sphere c1 via independent quadrature, rel < 1e-8", ok, "; ".join(details))


def test_criterion_09_moment_vanishing_rules():
    start = time.time()
    spec = make_quaternionic_spec(1)
    cfg = SimConfig(spec=spec, t=1.0, n_paths=1000, n_steps=250, seed=555001)
    checks = [
        (1, (1, 2, 1), 4000),
        (2, (1, 2, 3, 4), 4000),
        (3, (1,), 4000),
        (4, (1, 2, 3, 4, 1, 2), 4000),
    ]
    ok = True
    details = []
    for rule, idx, nsamp in checks:
        rep = check_moment_vanishing(cfg, rule, indices=idx, n_samples=nsamp)
        good = rep.vanishing_expected and abs(rep.estimate) < 3.0 * rep.stderr
        ok = ok and good
        details.append("r%d:%.1fsig" % (rule, abs(rep.estimate) / rep.stderr))
    rep_on = check_moment_vanishing(cfg, 4, indices=(1, 1, 2, 2, 1, 1), n_samples=2500)
    on_ok = (not rep_on.vanishing_expected) and abs(rep_on.estimate) > 5.0 * rep_on.stderr
    ok = ok and on_ok
    details.append("r4-on:%.1fsig" % (abs(rep_on.estimate) / rep_on.stderr))
    elapsed = time.time() - start
    ok = ok and elapsed < 900.0
    _report(
        9,
        "rules (1)-(3), off-pattern (2)/(4) consistent with 0 at 3 sigma; on-pattern (4) > 5 sigma, < 15 min",
        ok,
        "; ".join(details) + " t=%.0fs" % elapsed,
    )


def _sphere_spectrum(n, t_min):
    """Sublaplacian spectrum of the quaternionic Hopf sphere S^{4n+3} (Baudoin-Wang).

    For k >= 0 and j = k mod 2, ..., k in steps of 2, with a = (k+j)/2 and
    b = (k-j)/2, the eigenvalue 4[b(b+j+2n+1) + nj] has multiplicity
    (j+1) dim Sp(n+1)(a, b, 0, ..., 0).  The j = k branch grows only like
    4nk while multiplicities grow like k^{4n+2}, so the sum stops at the
    first k with 4nk t_min - (4n+2) ln k > 45.
    """
    k_max = 1
    while 4 * n * k_max * t_min - (4 * n + 2) * math.log(k_max) <= 45:
        k_max += 1
    k = np.concatenate([np.full(kk // 2 + 1, kk) for kk in range(k_max)])
    j = np.concatenate([np.arange(kk % 2, kk + 1, 2) for kk in range(k_max)])
    a, b = (k + j) // 2, (k - j) // 2
    rho = list(range(n + 1, 0, -1))
    lam = [a + rho[0], b + rho[1]] + rho[2:]  # lambda + rho for lambda = (a, b, 0, ..., 0)
    dim = 1.0
    for p in range(n + 1):  # Weyl's formula: positive roots 2 e_p and e_p -+ e_q, p < q
        dim = dim * lam[p] / rho[p]
        for q in range(p + 1, n + 1):
            dim = dim * ((lam[p] - lam[q]) * (lam[p] + lam[q]) / ((rho[p] - rho[q]) * (rho[p] + rho[q])))
    mult = (j + 1) * dim
    # the multiplicities at each k add up to dim H_k(R^{4n+4}), the harmonic polynomials of degree k
    d = 4 * n + 4
    harmonic = [float(math.comb(kk + d - 1, d - 1) - math.comb(kk + d - 3, d - 1)) for kk in range(k_max)]
    assert np.allclose(np.bincount(k, weights=mult), harmonic, rtol=1e-12, atol=0)
    ev, slot = np.unique(4.0 * (b * (b + j + 2 * n + 1) + n * j), return_inverse=True)
    return SpectrumFile(tuple(ev.tolist()), tuple(np.bincount(slot, weights=mult).tolist()))


def test_criterion_10_spectral_extraction():
    start = time.time()
    t = np.linspace(0.05, 0.5, 12)
    tr = t ** (-5.0) * (1.0 / 120.0 + 0.01 * t)
    A, _, B, _, _ = fit_heat_trace(t, tr, 1)
    synthetic_s = time.time() - start
    ok = abs(A - 1.0 / 120.0) * 120.0 < 1e-4 and abs(B - 0.01) / 0.01 < 1e-4 and synthetic_s < 1.0
    details = ["synthetic A=%.8f B=%.8f t=%.2fs" % (A, B, synthetic_s)]
    # the sphere: A = c0 Vol, B/A = c1/c0 from the integral in qcheat.invariants (at n = 2
    # evaluated by a 30-digit mpmath quadrature), kappa = 16 n (n+2)
    t = np.linspace(0.01, 0.06, 24)
    for n, c1_over_c0, rel_max in ((1, 8 - 15 / math.pi**2, 1e-6), (2, 18.2278716908345, 1e-4)):
        res = spectral_extract(_sphere_spectrum(n, t[0]), t, n)
        A, A_err, B, B_err = res["A"], res["A_err"], res["B"], res["B_err"]
        c0, c0_err = compute_c0(n)
        vol = (16 * n) ** -1.5 * 2 * math.pi ** (2 * n + 2) / math.factorial(2 * n + 1)
        ratio_err = B / A * (B_err / B + A_err / A)
        kappa, kappa_err = res["derived"]["kappa"], res["derived"]["kappa_err"]
        ok = (
            ok
            and abs(A - c0 * vol) <= A_err + c0_err * vol
            and abs(B / A - c1_over_c0) <= ratio_err
            and abs(kappa - sphere_kappa(n)) <= kappa_err
            and max(A_err / A, ratio_err / c1_over_c0, kappa_err / kappa) <= rel_max
        )
        details.append(
            "n=%d A/(c0 Vol)-1=%.1e B/A-c1/c0=%.1e kappa=%.7g+/-%.1e"
            % (n, A / (c0 * vol) - 1, B / A - c1_over_c0, kappa, kappa_err)
        )
    elapsed = time.time() - start
    ok = ok and elapsed - synthetic_s < 5.0
    _report(
        10,
        "synthetic (A,B)=(1/120,0.01) within 1e-4, < 1 s; sphere spectrum n in {1,2}: A = c0 Vol, B/A, kappa"
        " within errors, < 5 s",
        ok,
        "; ".join(details) + " t=%.1fs" % elapsed,
    )


def test_criterion_11_diffusion_moments():
    start = time.time()
    spec = make_quaternionic_spec(1)
    cfg = SimConfig(spec=spec, t=1.0, n_paths=100_000, n_steps=400, seed=777003)
    samples = simulate_paths(cfg)
    ok = True
    details = []
    for a in range(4):
        vals = samples.x[:, a] ** 2
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        good = abs(est - 2.0) < 3.0 * se
        ok = ok and good
    details.append("Ex2 ok")
    mom = kernel_marginal_moments(spec, 1.0)
    qz, qz_err = mom["Ezz_diag"]
    # the Fourier-mode sampler with its exact-covariance tail and orthogonal J: E[z_i^2] = 32 n t^2 exactly
    exact = 32.0 * spec.n * cfg.t**2
    for i in range(3):
        vals = samples.z[:, i] ** 2
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        good = abs(est - qz) < 3.0 * (se + qz_err) and abs(est - exact) < 3.0 * se
        ok = ok and good
        details.append("z%d:%.2f (%+.2f sigma from exact)" % (i + 1, est, (est - exact) / se))
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(
        11,
        "E[x^2]=2t, E[z^2] vs quadrature and vs the exact value 32nt^2 within 3 sigma at 1e5 paths, < 2 min",
        ok,
        "; ".join(details) + " qz=%.2f exact=%.4f t=%.0fs" % (qz, exact, elapsed),
    )
