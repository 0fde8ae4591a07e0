"""Horizontal-diffusion simulation and statistical kernel validation.

The generator -Delta_sub = sum Xtilde_a^2 drives, per horizontal coordinate,
Brownian motion of variance 2t (BROWNIAN_VARIANCE_FACTOR); the vertical
coordinates follow the Ito integral

    dz_i = 2 sum_{b,a} I^i_{ba} x_b dx_a,

whose Ito correction vanishes (the z-coefficients are linear in x with skew
I, so a field applied to its own vertical coefficient hits the zero diagonal
I^i_{aa}).  Euler-Maruyama with exact Gaussian x-increments is therefore
unbiased in x and weakly biased O(dt) in z only.

Randomness is counter-based: each path draws from Philox keyed by
(seed, path index), with steps consumed in order inside the path, so a
path's samples do not depend on which other paths are drawn or in what
order they are evaluated; the uniform time draws of the convolution
estimators use a reserved stream key.  Antithetic pairing is deliberately
not used for the vanishing-rule estimators: those integrands are odd under
the path sign flip, and pairing would force the estimate to exactly zero,
making the null check vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import BROWNIAN_VARIANCE_FACTOR, QuadratureConfig, heat_kernel_point
from .qc_expansion import _moment_decomposition

__all__ = [
    "SimConfig",
    "TerminalSamples",
    "MomentCheckReport",
    "simulate_paths",
    "moment_report",
    "semigroup_convolution_check",
    "check_moment_vanishing",
    "rule_pattern",
]

_TIME_STREAM = 0x5EED_71AE_0000_0000  # reserved path index of the s-draw stream
_PATH_STEP_BUDGET = 200_000_000  # ceiling on n_paths * n_steps


@dataclass(frozen=True)
class SimConfig:
    """One seeded simulation; n_paths * n_steps is capped at 2e8 path-steps."""

    spec: object
    t: float
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("time must be positive")
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need positive path/step counts")
        if self.seed is None:
            raise ValueError("seed is mandatory for reproducibility")
        if self.n_paths * self.n_steps > _PATH_STEP_BUDGET:
            raise ValueError(
                "simulation budget exceeded: %d * %d > %d"
                % (self.n_paths, self.n_steps, _PATH_STEP_BUDGET)
            )


@dataclass(frozen=True)
class TerminalSamples:
    x: np.ndarray  # (n_paths, 4n)
    z: np.ndarray  # (n_paths, 3)


def _path_rng(seed, path_index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_one(spec, J, t, n_steps, seed, path_index):
    m = spec.m
    dt = t / n_steps
    rng = _path_rng(seed, path_index)
    xi = rng.standard_normal((n_steps, m))
    dx = math.sqrt(BROWNIAN_VARIANCE_FACTOR * dt) * xi
    xs = np.vstack([np.zeros((1, m)), np.cumsum(dx, axis=0)])
    x_pre = xs[:-1]
    z = np.empty(3)
    for i in range(3):
        z[i] = 2.0 * float(np.sum((x_pre @ J[i]) * dx))
    return xs[-1], z


def simulate_paths(cfg):
    """Terminal samples of the horizontal diffusion at time cfg.t."""
    spec = cfg.spec
    J = spec.J_float()
    n = cfg.n_paths
    x_out = np.empty((n, spec.m))
    z_out = np.empty((n, 3))
    for p in range(n):
        x_out[p], z_out[p] = _simulate_one(spec, J, cfg.t, cfg.n_steps, cfg.seed, p)
    return TerminalSamples(x=x_out, z=z_out)


def _mean_stderr(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return mean, stderr


def moment_report(samples):
    """First/second-moment estimates with standard errors, as labeled rows."""
    rows = []
    m = samples.x.shape[1]
    for a in range(m):
        est, se = _mean_stderr(samples.x[:, a])
        rows.append(("E[x_%d]" % (a + 1), est, se))
    for a in range(m):
        est, se = _mean_stderr(samples.x[:, a] ** 2)
        rows.append(("E[x_%d^2]" % (a + 1), est, se))
    for i in range(3):
        est, se = _mean_stderr(samples.z[:, i])
        rows.append(("E[z_%d]" % (i + 1), est, se))
    for i in range(3):
        est, se = _mean_stderr(samples.z[:, i] ** 2)
        rows.append(("E[z_%d^2]" % (i + 1), est, se))
    return rows


def semigroup_convolution_check(spec, t, s, n_paths=2000, n_steps=200, seed=20240801):
    """Convolution identity at the origin: p(t+s,0,0) = E_{xi~p(t)}[p(s,xi,0)].

    Returns (mc_estimate, mc_stderr, direct_value, direct_err).
    """
    sim = simulate_paths(SimConfig(spec=spec, t=t, n_paths=n_paths, n_steps=n_steps, seed=seed))
    qcfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12)
    vals = np.empty(n_paths)
    for p in range(n_paths):
        # p(s, xi, 0) = p(s, 0, xi^{-1}) = p(s, 0, (-x, -z))
        vals[p] = heat_kernel_point(spec, s, -sim.x[p], -sim.z[p], cfg=qcfg).value
    est, se = _mean_stderr(vals)
    direct = heat_kernel_point(spec, t + s, [0.0] * spec.m, [0.0] * 3, cfg=qcfg)
    return est, se, direct.value, direct.err_estimate


def rule_pattern(spec, rule_id, indices=None):
    """Monomial and derivative pattern of a vanishing rule (1-based indices).

    rule 1: x_a x_b dz_i        (defaults a,b,i = 1,2,1)
    rule 2: x_a x_b dx_g dx_d   (defaults 1,2,3,4: off-pattern)
    rule 3: dz_i                (default 1)
    rule 4: x_a x_b x_g x_d dz_i dz_j (defaults 1,2,3,4,1,2: off-pattern)

    Raises ValueError for an unknown rule, a wrong number of indices, or an
    index outside 1..4n (x) or 1..3 (z).
    """
    m = spec.m
    nv = m + 3
    kinds = {1: "xxz", 2: "xxxx", 3: "z", 4: "xxxxzz"}.get(rule_id)
    if kinds is None:
        raise ValueError("rule_id must be in {1,2,3,4}")
    if indices:
        if len(indices) != len(kinds):
            raise ValueError(
                "rule %d takes %d indices, got %d" % (rule_id, len(kinds), len(indices))
            )
        for kind, idx in zip(kinds, indices):
            top = m if kind == "x" else 3
            if not 1 <= idx <= top:
                raise ValueError(
                    "rule %d: %s index %d is outside 1..%d" % (rule_id, kind, idx, top)
                )
    mono = [0] * nv
    deriv = [0] * nv
    if rule_id == 1:
        a, b, i = indices or (1, 2, 1)
        mono[a - 1] += 1
        mono[b - 1] += 1
        deriv[m + i - 1] += 1
    elif rule_id == 2:
        a, b, g, d = indices or (1, 2, 3, 4)
        mono[a - 1] += 1
        mono[b - 1] += 1
        deriv[g - 1] += 1
        deriv[d - 1] += 1
    elif rule_id == 3:
        (i,) = indices or (1,)
        deriv[m + i - 1] += 1
    else:
        a, b, g, d, i, j = indices or (1, 2, 3, 4, 1, 2)
        for idx in (a, b, g, d):
            mono[idx - 1] += 1
        deriv[m + i - 1] += 1
        deriv[m + j - 1] += 1
    return tuple(mono), tuple(deriv)


@dataclass(frozen=True)
class MomentCheckReport:
    rule_id: int
    indices: tuple
    estimate: float
    stderr: float
    n_samples: int
    vanishing_expected: bool
    passed: bool
    label: str


def _leibniz_splits(deriv):
    """All ways to split a derivative multi-index across a product, with
    multinomial coefficients: yields (onto_phi, onto_kernel, coeff)."""
    nv = len(deriv)
    splits = [([0] * nv, [0] * nv, 1)]
    for c in range(nv):
        for _ in range(deriv[c]):
            new = []
            for a, b, w in splits:
                a1 = list(a)
                a1[c] += 1
                new.append((a1, list(b), w))
                b1 = list(b)
                b1[c] += 1
                new.append((list(a), b1, w))
            splits = new
    merged = {}
    for a, b, w in splits:
        key = (tuple(a), tuple(b))
        merged[key] = merged.get(key, 0) + w
    return [(a, b, w) for (a, b), w in merged.items()]


def _monomial_derivative(mono, d):
    """d/dxi^d of xi^mono: (coefficient, remaining exponents) or None."""
    coeff = 1
    rest = list(mono)
    for c, k in enumerate(d):
        if k > rest[c]:
            return None
        for _ in range(k):
            coeff *= rest[c]
            rest[c] -= 1
    return coeff, tuple(rest)


def _monomial_value(exps, x, z):
    """x^exps[:m] * z^exps[m:] at one point, m = len(x)."""
    value = 1.0
    for coord, e in zip(np.concatenate([x, z]), exps):
        if e:
            value *= coord**e
    return value


def check_moment_vanishing(cfg, rule_id, indices=None, n_samples=4000):
    """Estimate a convolution moment of the second-invariant integral.

    The target is

        M = int_0^1 int p(1-s,0,xi) phi(xi) D p(s,xi,0) dxi ds

    against Lebesgue measure (the Haar factor is divided out), with s drawn
    uniformly on (0, 1).  For s >= 1/2 the outer samples follow p(1-s, 0, .)
    by simulation and the derivative factor D p(s, ., 0) is evaluated by
    kernel quadrature.  For s < 1/2 that naive estimator is heavy-tailed (the
    derivative factor concentrates on a sqrt(s)-ball and its square is not
    integrable against the wide density), so the identical integral is
    estimated after integration by parts: (-1)^|D| int D[phi p(1-s,0,.)]
    p(s,.,0) dxi, sampling from the *small*-time kernel and differentiating
    the smooth large-time factor.  Both branches are unbiased for the same
    integrand; the split keeps the variance finite.

    A vanishing rule passes when |estimate| < 3 stderr; a pattern surviving
    the parity classification is instead required to exceed 5 stderr.
    """
    spec = cfg.spec
    m = spec.m
    mono, deriv = rule_pattern(spec, rule_id, indices)
    decomp = _moment_decomposition(mono, deriv, m)
    vanishing = decomp == {}
    order = sum(deriv)
    sign = (-1.0) ** order
    inv_haar = 1.0 / spec.haar_factor
    qcfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-10)
    J = spec.J_float()
    splits = _leibniz_splits(deriv)

    srng = _path_rng(cfg.seed, _TIME_STREAM)
    svals = srng.uniform(0.0, 1.0, size=n_samples)
    vals = np.empty(n_samples)
    for p in range(n_samples):
        s = float(svals[p])
        if s >= 0.5:
            # sample xi ~ p(1-s), differentiate the short-time factor
            t_sim = 1.0 - s
            steps = max(8, int(math.ceil(cfg.n_steps * t_sim)))
            x, z = _simulate_one(spec, J, t_sim, steps, cfg.seed, p)
            phi = _monomial_value(mono, x, z)
            dp = heat_kernel_point(spec, s, -x, -z, derivative=deriv, cfg=qcfg).value
            vals[p] = inv_haar * phi * sign * dp
        else:
            # integrate by parts: sample eta ~ p(s), differentiate at 1-s
            steps = max(8, int(math.ceil(cfg.n_steps * s)))
            x, z = _simulate_one(spec, J, s, steps, cfg.seed, p)
            # the integration variable is xi = eta^{-1}
            xi_x, xi_z = -x, -z
            total = 0.0
            for onto_phi, onto_kernel, w in splits:
                md = _monomial_derivative(mono, onto_phi)
                if md is None:
                    continue
                coeff, rest = md
                phi = _monomial_value(rest, xi_x, xi_z)
                gk = heat_kernel_point(
                    spec, 1.0 - s, xi_x, xi_z, derivative=tuple(onto_kernel), cfg=qcfg
                ).value
                total += w * coeff * phi * gk
            vals[p] = inv_haar * sign * total
    est, se = _mean_stderr(vals)
    if vanishing:
        passed = abs(est) < 3.0 * se
    else:
        passed = abs(est) > 5.0 * se
    label = "rule%d%s" % (rule_id, tuple(indices) if indices else "(default)")
    return MomentCheckReport(
        rule_id=rule_id,
        indices=tuple(indices) if indices else (),
        estimate=est,
        stderr=se,
        n_samples=n_samples,
        vanishing_expected=vanishing,
        passed=passed,
        label=label,
    )
