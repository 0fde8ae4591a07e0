"""Diffusion simulation: moments, determinism, and vanishing-rule machinery."""

import math

import numpy as np
import pytest

from qcheat.group import make_quaternionic_spec
from qcheat.kernel import kernel_marginal_moments
from qcheat.mc import (
    MomentCheckReport,
    SimConfig,
    check_moment_vanishing,
    moment_report,
    rule_pattern,
    simulate_paths,
)

SPEC = make_quaternionic_spec(1)


def small_cfg(seed=7, n_paths=4000, n_steps=150, t=1.0):
    return SimConfig(spec=SPEC, t=t, n_paths=n_paths, n_steps=n_steps, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=-1, n_paths=10, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=0, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=10, n_steps=10, seed=None)
    with pytest.raises(ValueError):
        SimConfig(spec=SPEC, t=1, n_paths=10**6, n_steps=10**6, seed=1)


def test_seeded_determinism():
    s1 = simulate_paths(small_cfg(n_paths=500))
    s2 = simulate_paths(small_cfg(n_paths=500))
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.z, s2.z)
    s3 = simulate_paths(small_cfg(seed=8, n_paths=500))
    assert not np.array_equal(s1.x, s3.x)


def _reference_path(cfg, p):
    """Terminal (x, z) of path p rebuilt from its own Philox stream by a plain Euler loop."""
    m = cfg.spec.m
    J = [[[float(v) for v in row] for row in Ji] for Ji in cfg.spec.J]
    key = np.array([cfg.seed, p], dtype=np.uint64)
    xi = np.random.Generator(np.random.Philox(key=key)).standard_normal((cfg.n_steps, m))
    scale = math.sqrt(2.0 * cfg.t / cfg.n_steps)
    x = [0.0] * m
    z = [0.0] * 3
    for k in range(cfg.n_steps):
        dx = [scale * float(v) for v in xi[k]]
        for i in range(3):
            z[i] += 2.0 * sum(x[b] * J[i][b][a] * dx[a] for a in range(m) for b in range(m))
        x = [x[a] + dx[a] for a in range(m)]
    return np.array(x), np.array(z)


def test_stream_layout_per_path_keys():
    """Path p draws its (n_steps, m) normals from Philox(key=[seed, p]), nothing else."""
    cfg = small_cfg(seed=31, n_paths=12, n_steps=40, t=0.7)
    samples = simulate_paths(cfg)
    for p in (0, 1, 5, 11):
        x, z = _reference_path(cfg, p)
        np.testing.assert_allclose(samples.x[p], x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(samples.z[p], z, rtol=1e-12, atol=1e-15)
    # a path's samples do not depend on how many other paths are drawn
    prefix = simulate_paths(small_cfg(seed=31, n_paths=3, n_steps=40, t=0.7))
    assert np.array_equal(prefix.x, samples.x[:3]) and np.array_equal(prefix.z, samples.z[:3])


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


def test_inconclusive_flag():
    cfg = small_cfg(seed=42, n_paths=100, n_steps=100)
    rep = check_moment_vanishing(cfg, 3, n_samples=50, stderr_ceiling=1e-12)
    assert rep.inconclusive
