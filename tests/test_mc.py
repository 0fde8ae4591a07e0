"""Diffusion simulation: moments, determinism, and vanishing-rule machinery."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import qcheat.mc as mc
from qcheat.group import GroupSpec, make_quaternionic_spec
from qcheat.kernel import KernelValue, heat_kernel_point, kernel_marginal_moments
from qcheat.mc import (
    MomentCheckReport,
    SimConfig,
    _ibp_terms,
    check_moment_vanishing,
    moment_report,
    rule_pattern,
    simulate_paths,
)
from qcheat.qc_expansion import M_X4DZDZ, M_XXDXDX_CROSS, M_XXDXDX_PP, moment_exemplar

SPEC = make_quaternionic_spec(1)


def small_cfg(seed=7, n_paths=4000, n_steps=150, t=1.0):
    return SimConfig(spec=SPEC, t=t, n_paths=n_paths, n_steps=n_steps, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=-1, n_paths=10, n_steps=10, seed=1)
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SimConfig(spec=SPEC, t=t, n_paths=10, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=0, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=10, n_steps=10, seed=None)
    for seed in (7.0, "7"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(spec=SPEC, t=1, n_paths=10, n_steps=10, seed=seed)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=10**6, n_steps=10**6, seed=1)


@pytest.mark.parametrize("counts", [{"n_paths": 2.5, "n_steps": 10}, {"n_paths": 10, "n_steps": 9.5}])
def test_config_rejects_non_integer_counts(counts):
    # at construction, not with a TypeError at draw time
    name = "n_paths" if isinstance(counts["n_paths"], float) else "n_steps"
    with pytest.raises(ValueError, match="%s must be an integer" % name):
        SimConfig(spec=SPEC, t=1.0, seed=1, **counts)


def test_config_stores_python_int_counts():
    cfg = SimConfig(spec=SPEC, t=1.0, n_paths=np.int64(12), n_steps=np.int32(40), seed=np.uint8(3))
    assert [type(v) for v in (cfg.n_paths, cfg.n_steps, cfg.seed)] == [int, int, int]
    assert simulate_paths(cfg).x.shape == (12, SPEC.m)


def test_seeded_determinism():
    s1 = simulate_paths(small_cfg(n_paths=500))
    s2 = simulate_paths(small_cfg(n_paths=500))
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.z, s2.z)
    s3 = simulate_paths(small_cfg(seed=8, n_paths=500))
    assert not np.array_equal(s1.x, s3.x)


def test_numpy_integer_seed_matches_python_int():
    ref = simulate_paths(small_cfg(seed=5, n_paths=20))
    for seed in (np.int64(5), np.uint8(5)):
        cfg = small_cfg(seed=seed, n_paths=20)
        assert type(cfg.seed) is int
        got = simulate_paths(cfg)
        assert np.array_equal(got.x, ref.x) and np.array_equal(got.z, ref.z)
    # a numpy seed at the top of the uint64 range is taken modulo 2^64 like a Python int
    wrapped = simulate_paths(small_cfg(seed=np.uint64(2**64 - 1), n_paths=20))
    neg = simulate_paths(small_cfg(seed=-1, n_paths=20))
    assert np.array_equal(wrapped.z, neg.z)


def _reference_path(spec, t, n_modes, seed, p, n_drawn=None):
    """Terminal (x, z) of path p by a plain loop over its Levy-area modes.

    Path p's Philox(key=[seed, p]) stream is drawn for n_drawn >= n_modes
    modes and read in order, only as far as n_modes modes need: xi, the tail
    normals u (one per pair a < b) and h, then (zeta_k, eta_k) per mode.
    """
    m, K = spec.m, n_modes
    J = [[[float(v) for v in row] for row in Ji] for Ji in spec.J]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    key = np.array([seed % 2**64, p], dtype=np.uint64)
    n_normals = 2 * m + len(pairs) + 2 * m * (n_drawn or K)
    draws = iter(np.random.Generator(np.random.Philox(key=key)).standard_normal(n_normals).tolist())
    xi = [next(draws) for _ in range(m)]
    u = [next(draws) for _ in pairs]
    h = [next(draws) for _ in range(m)]
    w = [0.0] * spec.r
    for k in range(1, K + 1):
        zeta = [next(draws) for _ in range(m)]
        v = [next(draws) + math.sqrt(2.0) * xi[b] for b in range(m)]
        for i in range(spec.r):
            w[i] += sum(zeta[a] * J[i][a][b] * v[b] for a in range(m) for b in range(m)) / k
    # the dropped modes: given xi, a Gaussian of covariance a_K (tr(J^i J^jT) + 2 (J^i xi).(J^j xi))
    a_K = math.pi**2 / 6 - sum(1.0 / k**2 for k in range(1, K + 1))
    for i in range(spec.r):
        tail = sum(h[a] * J[i][a][b] * xi[b] for a in range(m) for b in range(m))
        tail += sum(uab * J[i][a][b] for uab, (a, b) in zip(u, pairs))
        w[i] += math.sqrt(2.0 * a_K) * tail
    return math.sqrt(2.0 * t) * np.array(xi), 4.0 * t / math.pi * np.array(w)


def _assert_matches_reference_loop(spec, t, n_modes, seed, p, x, z, n_drawn=None):
    ref_x, ref_z = _reference_path(spec, t, n_modes, seed, p, n_drawn)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(z, ref_z, rtol=1e-12, atol=1e-13 * t)


def _one_path(spec, t, n_modes, seed, p):
    """Terminal (x, z) of path p from a one-path pass of the simulator."""
    x, z = mc._simulate(spec, np.array([float(t)]), n_modes, seed, np.array([p]))
    return x[0], z[0]


def test_stream_layout_per_path_keys(monkeypatch):
    """Path p draws its normals from Philox(key=[seed, p]), nothing else."""
    for n in (1, 2):
        cfg = SimConfig(spec=make_quaternionic_spec(n), t=0.7, n_paths=12, n_steps=40, seed=31)
        samples = simulate_paths(cfg)
        for p in (0, 1, 5, 11):
            _assert_matches_reference_loop(cfg.spec, cfg.t, 7, cfg.seed, p, samples.x[p], samples.z[p])
        # a path's samples do not depend on how many other paths are drawn
        prefix = simulate_paths(replace(cfg, n_paths=3))
        assert np.array_equal(prefix.x, samples.x[:3]) and np.array_equal(prefix.z, samples.z[:3])
    # mixed times, several blocks, paths in no particular order
    monkeypatch.setattr(mc, "_BLOCK_NORMALS", 400)
    rng = np.random.default_rng(5)
    paths = rng.permutation(24) + 3
    t = rng.uniform(0.1, 1.0, size=len(paths))
    for n in (1, 2):
        spec = make_quaternionic_spec(n)
        x, z = mc._simulate(spec, t, 6, -57, paths)
        for row, (p, ts) in enumerate(zip(paths.tolist(), t.tolist())):
            _assert_matches_reference_loop(spec, ts, 6, -57, p, x[row], z[row])
            one_x, one_z = _one_path(spec, ts, 6, -57, p)
            assert np.array_equal(x[row], one_x) and np.array_equal(z[row], one_z)


@pytest.mark.parametrize("n", [1, 2])
def test_mode_streams_nest(n):
    # at K modes a path reads a prefix of its (K+1)-mode stream: x keeps its bits, and z
    # follows the reference loop that reads K modes of a stream drawn for K + 1
    spec = make_quaternionic_spec(n)
    t, seed, paths = 0.8, 4242, np.arange(5)
    for K in (1, 4, 20):
        x0, z0 = mc._simulate(spec, np.full(5, t), K, seed, paths)
        x1, z1 = mc._simulate(spec, np.full(5, t), K + 1, seed, paths)
        assert np.array_equal(x0, x1) and not np.array_equal(z0, z1)
        for p in paths.tolist():
            _assert_matches_reference_loop(spec, t, K, seed, p, x0[p], z0[p], n_drawn=K + 1)
            _assert_matches_reference_loop(spec, t, K + 1, seed, p, x1[p], z1[p])


# the Heisenberg group (r = 1) and a rank-two group whose second bracket is no signed permutation
_HEISENBERG = GroupSpec(J=(((F(0), F(1)), (F(-1), F(0))),))
_RANK_TWO = GroupSpec(
    J=(
        ((F(0), F(1), F(0), F(0)), (F(-1), F(0), F(0), F(0)), (F(0), F(0), F(0), F(1)), (F(0), F(0), F(-1), F(0))),
        ((F(0), F(0), F(1, 2), F(-3)), (F(0), F(0), F(2), F(0)), (F(-1, 2), F(-2), F(0), F(0)), (F(3), F(0), F(0), F(0))),
    ),
)


@pytest.mark.parametrize("spec", [_HEISENBERG, _RANK_TWO], ids=["r1", "r2"])
def test_any_vertical_rank_matches_reference_loop(spec):
    cfg = SimConfig(spec=spec, t=0.6, n_paths=9, n_steps=50, seed=808)
    samples = simulate_paths(cfg)
    assert samples.x.shape == (9, spec.m) and samples.z.shape == (9, spec.r)
    for p in range(cfg.n_paths):
        _assert_matches_reference_loop(spec, cfg.t, 8, cfg.seed, p, samples.x[p], samples.z[p])
    assert [name for name, _, _ in moment_report(samples)][-2 * spec.r :] == (
        ["E[z_%d]" % (i + 1) for i in range(spec.r)] + ["E[z_%d^2]" % (i + 1) for i in range(spec.r)]
    )


@pytest.mark.parametrize("n", [1, 2])
def test_simulate_paths_matches_per_path_reference_bit_for_bit(n):
    spec = make_quaternionic_spec(n)
    n_steps = 400
    K = 20
    width = 2 * spec.m + spec.m * (spec.m - 1) // 2 + 2 * spec.m * K  # normals per path
    block = mc._BLOCK_NORMALS // width  # paths per array pass
    for n_paths in (block - 1, block + 1, 2 * block + 3):
        cfg = SimConfig(spec=spec, t=0.9, n_paths=n_paths, n_steps=n_steps, seed=-424242)
        got = simulate_paths(cfg)
        ref = [_one_path(spec, cfg.t, K, cfg.seed, p) for p in range(n_paths)]
        assert np.array_equal(got.x, np.array([x for x, _ in ref]))
        assert np.array_equal(got.z, np.array([z for _, z in ref]))


def test_simulate_paths_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="simulated path"):
            simulate_paths(small_cfg(t=1e308, n_paths=10, n_steps=10))


def test_check_samples_match_per_sample_reference_bit_for_bit(monkeypatch):
    # 18 modes at 300 steps, 158 normals per sample: four samples per block, so many blocks
    monkeypatch.setattr(mc, "_BLOCK_NORMALS", 700)
    sent = []

    def record_rows(spec, t, x, z, derivative, cfg):
        sent.append((x, z))
        return [KernelValue(1.0, 0.0, 0)] * len(t)

    monkeypatch.setattr(mc, "_query_rows", record_rows)
    cfg = small_cfg(seed=-77, n_paths=10, n_steps=300)
    n_samples = 500
    check_moment_vanishing(cfg, 3, n_samples=n_samples)  # dz_1: one kernel call per time branch, late first
    s = mc._path_rng(cfg.seed, mc._TIME_STREAM).uniform(0.0, 1.0, size=n_samples)
    late = s >= 0.5
    t_sim = np.where(late, 1.0 - s, s).tolist()
    ref = [_one_path(SPEC, ts, 18, cfg.seed, p) for p, ts in enumerate(t_sim)]
    x, z = np.array([x for x, _ in ref]), np.array([z for _, z in ref])
    assert len(sent) == 2
    for (got_x, got_z), rows in zip(sent, (late, ~late)):
        assert np.array_equal(got_x, -x[rows]) and np.array_equal(got_z, -z[rows])


def test_first_and_second_moments():
    samples = simulate_paths(small_cfg(n_paths=20000))
    rows = {name: (est, se) for name, est, se in moment_report(samples)}
    for a in range(4):
        est, se = rows["E[x_%d]" % (a + 1)]
        assert abs(est) < 3 * se
        est, se = rows["E[x_%d^2]" % (a + 1)]
        assert abs(est - 2.0) < 3 * se
    for i in range(3):
        est, se = rows["E[z_%d]" % (i + 1)]
        assert abs(est) < 3.5 * se


@pytest.mark.parametrize("n, t, seed", [(1, 1.0, 2601), (2, 1.0, 2602), (1, 0.6, 2603)])
def test_z_fourth_moment_matches_sech_law(n, t, seed):
    # z_i has characteristic function sech(4 lambda t)^(2n): E[z_i^4] = (1024 n + 3072 n^2) t^4
    samples = simulate_paths(SimConfig(spec=make_quaternionic_spec(n), t=t, n_paths=100_000, n_steps=400, seed=seed))
    exact = (1024 * n + 3072 * n**2) * t**4
    est, se = mc._mean_stderr(samples.z[:, 0] ** 4)
    assert abs(est - exact) < 3.0 * se


@pytest.mark.parametrize("spec, seed", [(_HEISENBERG, 2611), (_RANK_TWO, 2612)], ids=["r1", "r2"])
def test_z_covariance_matches_bracket_traces(spec, seed):
    # E[z_i z_j] = 8 t^2 tr(J^i J^jT) for any spec, exactly at every mode count
    t = 0.7
    samples = simulate_paths(SimConfig(spec=spec, t=t, n_paths=100_000, n_steps=400, seed=seed))
    for i in range(spec.r):
        for j in range(i, spec.r):
            trace = sum(a * b for row_i, row_j in zip(spec.J[i], spec.J[j]) for a, b in zip(row_i, row_j))
            est, se = mc._mean_stderr(samples.z[:, i] * samples.z[:, j])
            assert abs(est - 8.0 * t**2 * float(trace)) < 3.0 * se


def test_z_variance_matches_quadrature():
    samples = simulate_paths(small_cfg(n_paths=20000, n_steps=400))
    mom = kernel_marginal_moments(SPEC, 1.0)
    qz, qz_err = mom["Ezz_diag"]
    rows = {name: (est, se) for name, est, se in moment_report(samples)}
    for i in range(3):
        est, se = rows["E[z_%d^2]" % (i + 1)]
        assert abs(est - qz) < 3 * (se + qz_err)


def test_euler_bias_below_one_stderr():
    a = simulate_paths(small_cfg(n_paths=20000, n_steps=200))
    b = simulate_paths(small_cfg(n_paths=20000, n_steps=400))
    rows_a = {name: (est, se) for name, est, se in moment_report(a)}
    rows_b = {name: (est, se) for name, est, se in moment_report(b)}
    for i in range(3):
        ea, sa = rows_a["E[z_%d^2]" % (i + 1)]
        eb, sb = rows_b["E[z_%d^2]" % (i + 1)]
        assert abs(ea - eb) < sa + sb


def test_rule_patterns_and_expected_vanishing():
    mono, deriv = rule_pattern(SPEC, 1, (1, 2, 1))
    assert sum(mono[:4]) == 2 and deriv[4] == 1
    from qcheat.qc_expansion import _moment_decomposition

    assert _moment_decomposition(mono, deriv, 4) == {}
    # off-pattern rule 2 vanishes, on-pattern survives
    mono, deriv = rule_pattern(SPEC, 2, (1, 2, 3, 4))
    assert _moment_decomposition(mono, deriv, 4) == {}
    mono, deriv = rule_pattern(SPEC, 2, (1, 1, 2, 2))
    assert _moment_decomposition(mono, deriv, 4) != {}
    mono, deriv = rule_pattern(SPEC, 4, (1, 1, 2, 2, 1, 1))
    assert _moment_decomposition(mono, deriv, 4) != {}
    with pytest.raises(ValueError):
        rule_pattern(SPEC, 5)


@pytest.mark.parametrize(
    "rule_id, indices",
    [
        (1, (9, 9, 9)),  # x index past 4n = 4
        (1, (1, 2, 4)),  # z index past 3
        (2, (0, 1, 2, 3)),  # indices are 1-based
        (3, (1, 1)),  # too many
        (1, (1, 2)),  # too few
        (4, (1, 1, 2, 2, 1)),
    ],
)
def test_rule_pattern_rejects_bad_indices(rule_id, indices):
    with pytest.raises(ValueError):
        rule_pattern(SPEC, rule_id, indices)


def test_negative_seed_time_stream_wraps_mod_2_64():
    # the s-draws are keyed like the paths: seed -1 is seed 2^64 - 1
    neg = check_moment_vanishing(small_cfg(seed=-1, n_paths=50, n_steps=40), 3, n_samples=12)
    wrapped = check_moment_vanishing(
        small_cfg(seed=2**64 - 1, n_paths=50, n_steps=40), 3, n_samples=12
    )
    assert neg.estimate == wrapped.estimate and neg.stderr == wrapped.stderr


def test_vanishing_rule_small_run():
    cfg = small_cfg(seed=42, n_paths=1000, n_steps=200)
    rep = check_moment_vanishing(cfg, 3, n_samples=300)
    assert isinstance(rep, MomentCheckReport)
    assert rep.vanishing_expected
    assert rep.n_samples == 300
    assert rep.stderr > 0
    assert rep.passed  # deterministic for the fixed seed
    # identical configuration reproduces the estimate bit for bit
    rep2 = check_moment_vanishing(cfg, 3, n_samples=300)
    assert rep2.estimate == rep.estimate and rep2.stderr == rep.stderr



@pytest.mark.parametrize("n_samples", [1, 10**6])
def test_check_rejects_sample_count_before_drawing(monkeypatch, n_samples):
    # one sample has no standard error; 10^6 samples * 300 steps is over the path-step budget
    def no_draws(*args):
        raise AssertionError("drew before validating n_samples")

    monkeypatch.setattr(mc, "_path_rng", no_draws)
    with pytest.raises(ValueError, match="samples at 300 steps"):
        check_moment_vanishing(small_cfg(n_paths=10, n_steps=300), 3, n_samples=n_samples)


@pytest.mark.parametrize("spec", [_HEISENBERG, _RANK_TWO], ids=["r1", "r2"])
def test_kernel_checks_reject_non_quaternionic_spec_before_drawing(monkeypatch, spec):
    # both checks send -z into the quaternionic kernel, which takes three z coordinates
    def no_draws(*args):
        raise AssertionError("drew before validating the spec")

    monkeypatch.setattr(mc, "_path_rng", no_draws)
    cfg = SimConfig(spec=spec, t=1.0, n_paths=10, n_steps=40, seed=1)
    with pytest.raises(ValueError, match="quaternionic spec"):
        check_moment_vanishing(cfg, 3, n_samples=20)
    with pytest.raises(ValueError, match="quaternionic spec"):
        mc.semigroup_convolution_check(spec, 0.8, 0.6, n_paths=20, n_steps=40)


def _unit(*coords, nv=7):
    return tuple(coords.count(c) for c in range(nv))


def test_ibp_terms_weights_and_order():
    # (c, rest, d): every derivative on the monomial first, the first coordinate slowest
    assert _ibp_terms(_unit(0, 1), _unit(0, 1)) == [
        (1, _unit(), _unit()),
        (1, _unit(1), _unit(1)),
        (1, _unit(0), _unit(0)),
        (1, _unit(0, 1), _unit(0, 1)),
    ]
    assert _ibp_terms(_unit(0, 0), _unit(0, 0)) == [
        (2, _unit(), _unit()),
        (4, _unit(0), _unit(0)),
        (1, _unit(0, 0), _unit(0, 0)),
    ]
    # a derivative the monomial cannot absorb leaves only the terms that put it on f
    assert _ibp_terms(_unit(0), _unit(1, 4)) == [(1, _unit(0), _unit(1, 4))]


def _reference_splits(deriv):
    """Leibniz splits built one derivative at a time and merged in first-seen
    order: (onto monomial, onto kernel, multiplicity)."""
    nv = len(deriv)
    splits = [([0] * nv, [0] * nv, 1)]
    for c in range(nv):
        for _ in range(deriv[c]):
            new = []
            for a, b, w in splits:
                a1, b1 = list(a), list(b)
                a1[c] += 1
                b1[c] += 1
                new += [(a1, list(b), w), (list(a), b1, w)]
            splits = new
    merged = {}
    for a, b, w in splits:
        merged[(tuple(a), tuple(b))] = merged.get((tuple(a), tuple(b)), 0) + w
    return [(a, b, w) for (a, b), w in merged.items()]


def _reference_monomial(exps, x, z):
    """x^exps[:m] * z^exps[m:] at one point, m = len(x)."""
    value = 1.0
    for coord, e in zip(np.concatenate([x, z]), exps):
        if e:
            value *= coord**e
    return value


def _reference_check(cfg, mono, deriv, n_samples):
    """(estimate, stderr) with a separate loop per time branch and one kernel
    call per Leibniz split in the early branch."""
    spec = cfg.spec
    sign = (-1.0) ** sum(deriv)
    inv_haar = 1.0 / spec.haar_factor
    svals = mc._path_rng(cfg.seed, mc._TIME_STREAM).uniform(0.0, 1.0, size=n_samples)
    K = math.isqrt(cfg.n_steps - 1) + 1  # ceil(sqrt(n_steps)) modes for every sample
    vals = np.empty(n_samples)
    for p in range(n_samples):
        s = float(svals[p])
        if s >= 0.5:
            x, z = _one_path(spec, 1.0 - s, K, cfg.seed, p)
            phi = _reference_monomial(mono, x, z)
            dp = heat_kernel_point(spec, s, -x, -z, derivative=deriv, tol=1e-7).value
            vals[p] = inv_haar * phi * sign * dp
            continue
        x, z = _one_path(spec, s, K, cfg.seed, p)
        total = 0.0
        for onto_mono, onto_kernel, w in _reference_splits(deriv):
            if any(j > e for j, e in zip(onto_mono, mono)):
                continue
            coeff = 1
            for e, j in zip(mono, onto_mono):
                coeff *= math.perm(e, j)
            rest = tuple(e - j for e, j in zip(mono, onto_mono))
            phi = _reference_monomial(rest, -x, -z)
            gk = heat_kernel_point(spec, 1.0 - s, -x, -z, derivative=tuple(onto_kernel), tol=1e-7).value
            total += w * coeff * phi * gk
        vals[p] = inv_haar * sign * total
    return mc._mean_stderr(vals)


# at seeds 773 and 780 summing the terms in another order changes the estimate's last bit
@pytest.mark.parametrize(
    "indices, seed", [((1, 1, 1, 1), 770), ((1, 2, 1, 2), 777), ((1, 1, 1, 1), 773), ((1, 2, 1, 2), 780)]
)
def test_check_matches_per_split_reference_bit_for_bit(indices, seed):
    cfg = SimConfig(spec=make_quaternionic_spec(2), t=1.0, n_paths=10, n_steps=100, seed=seed)
    rep = check_moment_vanishing(cfg, 2, indices, n_samples=300)
    mono, deriv = rule_pattern(cfg.spec, 2, indices)
    assert (rep.estimate, rep.stderr) == _reference_check(cfg, mono, deriv, 300)


@pytest.mark.parametrize(
    "rule_id, indices, label",
    [
        (2, (1, 1, 2, 2), M_XXDXDX_PP),
        (2, (1, 2, 1, 2), M_XXDXDX_CROSS),
        (4, (1, 1, 2, 2, 1, 1), M_X4DZDZ),
    ],
)
def test_rules_equal_their_moment_exemplars(rule_id, indices, label):
    for n in (1, 2):
        spec = make_quaternionic_spec(n)
        assert rule_pattern(spec, rule_id, indices) == moment_exemplar(label, spec.m)


def test_check_batches_kernel_rows_per_branch_and_term(monkeypatch):
    import qcheat.kernel as kernel_mod

    calls = []
    real_rows = kernel_mod.gk_rows

    def counting_rows(*args):
        calls.append(len(args[1]))  # the rows' lower limits, one per row
        return real_rows(*args)

    def no_single_queries(*args, **kwargs):
        raise AssertionError("check_moment_vanishing made a single kernel query")

    monkeypatch.setattr(kernel_mod, "gk_rows", counting_rows)
    monkeypatch.setattr(kernel_mod, "_ROW_BLOCK", 64)  # each time branch spans blocks
    monkeypatch.setattr(kernel_mod, "heat_kernel_point", no_single_queries)
    monkeypatch.setattr(mc, "heat_kernel_point", no_single_queries)
    cfg = small_cfg(seed=61, n_paths=10, n_steps=40)
    n_samples = 300
    rep = check_moment_vanishing(cfg, 2, (1, 2, 1, 2), n_samples=n_samples)
    assert rep.n_samples == n_samples

    mono, deriv = rule_pattern(SPEC, 2, (1, 2, 1, 2))
    late = int(np.sum(mc._path_rng(cfg.seed, mc._TIME_STREAM).uniform(0.0, 1.0, size=n_samples) >= 0.5))
    blocks = lambda rows: math.ceil(rows / kernel_mod._ROW_BLOCK)
    n_terms = len(_ibp_terms(mono, deriv))  # x_1 x_2 dx_1 dx_2: four Leibniz terms
    assert n_terms == 4
    assert 0 < len(calls) <= blocks(late) + n_terms * blocks(n_samples - late)
    assert max(calls) <= kernel_mod._ROW_BLOCK


def test_semigroup_check_rejects_one_path_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before validating n_paths")

    monkeypatch.setattr(mc, "_path_rng", no_draws)
    with pytest.raises(ValueError, match="at least 2 paths"):
        mc.semigroup_convolution_check(SPEC, 0.8, 0.6, n_paths=1, n_steps=60)


@pytest.mark.parametrize("n", [1, 2])
def test_semigroup_check_matches_per_path_reference_bit_for_bit(n):
    spec = make_quaternionic_spec(n)
    t, s, n_paths, n_steps, seed = 0.8, 0.6, 150, 60, 99
    got = mc.semigroup_convolution_check(spec, t, s, n_paths=n_paths, n_steps=n_steps, seed=seed)
    sim = simulate_paths(SimConfig(spec=spec, t=t, n_paths=n_paths, n_steps=n_steps, seed=seed))
    vals = np.array([heat_kernel_point(spec, s, -sim.x[p], -sim.z[p], tol=1e-9).value for p in range(n_paths)])
    direct = heat_kernel_point(spec, t + s, [0.0] * spec.m, [0.0] * 3, tol=1e-9)
    assert got == (*mc._mean_stderr(vals), direct.value, direct.err_estimate)
