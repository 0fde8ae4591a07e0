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
estimators use a reserved stream key.  The simulator, _simulate, works on
a block of paths that share a step count in one array pass: one Philox is
re-keyed per path instead of built per path, which draws the same stream,
and every path's terminal (x, z) has the bits of a one-path pass.  z comes
from one Levy matrix per path, S = X^T dx with X the inclusive running sum
of the increments (its skew part is the path's Levy area), as
z_i = 2 sum_{b,a} S_{ba} J^i_{ba}: each J^i is skew, so dx^T J^i dx = 0 and
sum_t X(t)^T J^i dx(t) is the left-point Ito sum sum_t X(t-)^T J^i dx(t)
(Kloeden-Platen-Wright, Stoch. Anal. Appl. 10, 1992).  z has one column per
vertical direction of any GroupSpec.  simulate_paths and
check_moment_vanishing each make one call over all their paths; a call
groups its paths by step count.  The two kernel-based checks take the
quaternionic spec only, since the kernel has three z coordinates.
check_moment_vanishing computes both halves of its time integral with one
array body, over a Leibniz term list per half, and reads only spec, seed and
n_steps of its SimConfig.
Kernel values come from the kernel layer's one row entry, _query_rows,
which also serves the CLI rows and single queries: the checks simulate all
their samples first and then make one call per time branch and Leibniz term
(semigroup_convolution_check one call on all its paths), never one per
sample.  A failing kernel row raises the first ToleranceError met, in
branch, term, row order.  Antithetic pairing is deliberately not used for the
vanishing-rule estimators: those integrands are odd under the path sign
flip, and pairing would force the estimate to exactly zero, making the null
check vacuous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import BROWNIAN_VARIANCE_FACTOR, _check_point, _query_rows, _require_quaternionic, heat_kernel_point
from .qc_expansion import _moment_decomposition, _pattern
from .quadrature import ToleranceError

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
_BLOCK_PATH_STEPS = 25_600  # path-steps per array pass of _simulate; bounds its arrays


@dataclass(frozen=True)
class SimConfig:
    """One seeded simulation; n_paths * n_steps is capped at 2e8 path-steps."""

    spec: object
    t: float
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_point(self.t, ())
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
    z: np.ndarray  # (n_paths, r)


def _path_rng(seed, path_index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate(spec, t, n_steps, seed, paths):
    """Terminal (x, z) of each path paths[r], run to time t[r] in n_steps[r] Euler steps.

    The paths are taken in groups that share a step count, in increasing
    step count, and a block of at most _BLOCK_PATH_STEPS path-steps of one
    group is one array pass.  The Philox of _path_rng(seed, 0), set back to
    its initial state (counter 0, empty buffer) with its path word re-keyed
    to p, draws path p's normals as _path_rng(seed, p) would.  With X the
    inclusive cumsum of the increments dx, one batched matmul gives each
    path's Levy matrix S = X^T dx (m x m) and z = 2 einsum(S, J) contracts it
    with all spec.r bracket matrices at once.  This is the left-point Ito sum
    exactly, since every J^i is skew (GroupSpec checks it in exact
    arithmetic) and so dx^T J^i dx = 0; in floating point it moves z by
    rounding only.  Batched and one-path products give the same bits, so a
    path gets the bits of a one-path pass.  OverflowError when a terminal
    sample is not finite.
    """
    J = spec.J_float()
    rng = _path_rng(seed, 0)
    state = rng.bit_generator.state
    x, z = np.empty((len(paths), spec.m)), np.empty((len(paths), spec.r))
    with np.errstate(over="ignore", invalid="ignore"):
        # sorted(set(...)): a first np.unique call adds about 1.5 MB of resident memory (numpy 2.4)
        for k in sorted(set(n_steps.tolist())):
            group = np.flatnonzero(n_steps == k)
            size = max(1, _BLOCK_PATH_STEPS // k)
            for s in range(0, len(group), size):
                blk = group[s : s + size]
                dx = np.empty((len(blk), k, spec.m))
                for row, p in enumerate(paths[blk].tolist()):
                    state["state"]["key"][1] = p
                    rng.bit_generator.state = state
                    rng.standard_normal(out=dx[row])
                dx *= np.sqrt(BROWNIAN_VARIANCE_FACTOR * (t[blk] / k))[:, None, None]
                xs = np.cumsum(dx, axis=1)
                x[blk] = xs[:, -1]
                z[blk] = 2.0 * np.einsum("bma,ima->bi", xs.transpose(0, 2, 1) @ dx, J)
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise OverflowError("a simulated path left the floating-point range")
    return x, z


def simulate_paths(cfg):
    """Terminal samples of the horizontal diffusion at time cfg.t; OverflowError when one is not finite."""
    n = cfg.n_paths
    t, steps = np.full(n, float(cfg.t)), np.full(n, cfg.n_steps)
    return TerminalSamples(*_simulate(cfg.spec, t, steps, cfg.seed, np.arange(n)))


def _mean_stderr(values):
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return mean, stderr


def moment_report(samples):
    """First/second-moment estimates with standard errors, as labeled rows.

    ValueError for fewer than 2 paths, which leave no standard error;
    OverflowError when an estimate or its standard error is not finite, when
    the power of a nonzero sample underflows to 0, or when samples that differ
    give a standard error of 0 (their deviations underflowed).
    """
    if len(samples.x) < 2:
        raise ValueError("need at least 2 paths for a standard error, got %d" % len(samples.x))
    rows = []
    for kind, power in (("x", 1), ("x", 2), ("z", 1), ("z", 2)):
        coords = getattr(samples, kind)
        for a in range(coords.shape[1]):
            name = "E[%s_%d%s]" % (kind, a + 1, "^2" * (power - 1))
            with np.errstate(over="ignore", invalid="ignore"):
                values = coords[:, a] ** power
                est, se = _mean_stderr(values)
            underflow = np.any((values == 0.0) & (coords[:, a] != 0.0))
            lost = underflow or (se == 0.0 and values.min() != values.max())
            if lost or not (math.isfinite(est) and math.isfinite(se)):
                raise OverflowError("%s or its standard error left the floating-point range" % name)
            rows.append((name, est, se))
    return rows


def _value(res):
    """The value of one _query_rows result; a ToleranceError is raised."""
    if isinstance(res, ToleranceError):
        raise res
    return res.value


def semigroup_convolution_check(spec, t, s, n_paths=2000, n_steps=200, seed=20240801):
    """Convolution identity at the origin: p(t+s,0,0) = E_{xi~p(t)}[p(s,xi,0)].

    Returns (mc_estimate, mc_stderr, direct_value, direct_err).  ValueError,
    before any draw, for a spec that is not quaternionic or for fewer than 2
    paths, which leave no standard error.
    """
    _require_quaternionic(spec)
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error, got %d" % n_paths)
    _check_point(s, ())
    sim = simulate_paths(SimConfig(spec=spec, t=t, n_paths=n_paths, n_steps=n_steps, seed=seed))
    # p(s, xi, 0) = p(s, 0, xi^{-1}) = p(s, 0, (-x, -z)), all paths in one call
    results = _query_rows(spec, np.full(n_paths, float(s)), -sim.x, -sim.z, (), 1e-9)
    est, se = _mean_stderr(np.array([_value(res) for res in results]))
    direct = heat_kernel_point(spec, t + s, [0.0] * spec.m, [0.0] * 3, tol=1e-9)
    return est, se, direct.value, direct.err_estimate


# rule id -> (coordinate kind per index, default indices, number of monomial indices)
_RULES = {
    1: ("xxz", (1, 2, 1), 2),
    2: ("xxxx", (1, 2, 3, 4), 2),
    3: ("z", (1,), 0),
    4: ("xxxxzz", (1, 2, 3, 4, 1, 2), 4),
}


def rule_pattern(spec, rule_id, indices=None):
    """Monomial and derivative pattern of a vanishing rule (1-based indices).

    rule 1: x_a x_b dz_i        (defaults a,b,i = 1,2,1)
    rule 2: x_a x_b dx_g dx_d   (defaults 1,2,3,4: off-pattern)
    rule 3: dz_i                (default 1)
    rule 4: x_a x_b x_g x_d dz_i dz_j (defaults 1,2,3,4,1,2: off-pattern)

    Raises ValueError for an unknown rule, a wrong number of indices, or an
    index outside 1..4n (x) or 1..3 (z).
    """
    if rule_id not in _RULES:
        raise ValueError("rule_id must be in {1,2,3,4}")
    kinds, defaults, n_mono = _RULES[rule_id]
    if indices:
        if len(indices) != len(kinds):
            raise ValueError(
                "rule %d takes %d indices, got %d" % (rule_id, len(kinds), len(indices))
            )
        for kind, idx in zip(kinds, indices):
            top = spec.m if kind == "x" else 3
            if not 1 <= idx <= top:
                raise ValueError(
                    "rule %d: %s index %d is outside 1..%d" % (rule_id, kind, idx, top)
                )
    return _pattern(spec.m, kinds, indices or defaults, n_mono)


@dataclass(frozen=True)
class MomentCheckReport:
    estimate: float
    stderr: float
    n_samples: int
    vanishing_expected: bool
    passed: bool
    label: str


def _ibp_terms(mono, deriv):
    """Leibniz terms D[xi^mono f] = sum c xi^rest D^d f, as (c, rest, d) with c != 0.

    Per coordinate, j of its k derivatives fall on xi^e, with weight
    C(k, j) e!/(e-j)!.  j descends per coordinate, the first coordinate
    slowest, so the first term puts every derivative on the monomial.
    """
    terms = []
    for onto_mono in itertools.product(*(range(k, -1, -1) for k in deriv)):
        c = 1
        for e, k, j in zip(mono, deriv, onto_mono):
            c *= math.comb(k, j) * math.perm(e, j)
        if c:
            rest = tuple(e - j for e, j in zip(mono, onto_mono))
            terms.append((c, rest, tuple(k - j for k, j in zip(deriv, onto_mono))))
    return terms


def _monomial_value(exps, x, z):
    """x^exps[:m] * z^exps[m:] per row of x (N, m) and z (N, 3)."""
    value = np.ones(len(x))
    for coord, e in zip(np.concatenate([x, z], axis=1).T, exps):
        if e:
            value = value * coord**e
    return value


def _check_sample_count(n_samples, n_steps):
    """ValueError unless 2 <= n_samples and n_samples * n_steps is within the path-step budget."""
    if not 2 <= n_samples <= _PATH_STEP_BUDGET // n_steps:
        raise ValueError(
            "need 2..%d samples at %d steps (2 for a standard error, %d path-steps at most), got %d"
            % (_PATH_STEP_BUDGET // n_steps, n_steps, _PATH_STEP_BUDGET, n_samples)
        )


def check_moment_vanishing(cfg, rule_id, indices=None, n_samples=4000):
    """Estimate a convolution moment of the second-invariant integral.

    The target is

        M = int_0^1 int p(1-s,0,xi) phi(xi) D p(s,xi,0) dxi ds

    against Lebesgue measure (the Haar factor is divided out), with s drawn
    uniformly on (0, 1).  One body serves both halves: sample p simulates a
    point (x, z) to time t_sim, and its value is the outer factor times the
    sum of c (-x,-z)^rest D^d p(t_ker, 0, (-x,-z)) over the half's terms.
    For s >= 1/2, (x, z) = xi ~ p(1-s, 0, .), t_ker = s, the outer factor is
    phi(xi) and the one term is (1, (), D), since p(s, xi, 0) =
    p(s, 0, xi^{-1}).  For s < 1/2 that estimator is heavy-tailed (the
    derivative factor concentrates on a sqrt(s)-ball and its square is not
    integrable against the wide density), so the same integral
    is taken after integration by parts, (-1)^|D| int D[phi p(1-s,0,.)]
    p(s,.,0) dxi: (x, z) ~ p(s, 0, .), xi = (-x, -z), t_ker = 1-s, the outer
    factor is 1 and the terms are the _ibp_terms list, summed with every
    derivative on phi first.  The split keeps the variance finite.  All
    samples are simulated first; then each branch (late first) sends its
    samples, with their own t_ker, through one kernel _query_rows call per
    term and adds the term to the branch's array of sums, in term order.  A
    kernel row that misses tolerance raises the first ToleranceError met, in
    branch, term, row order.

    Of cfg only spec, seed and n_steps are read; a sample simulates
    max(8, ceil(n_steps * t_sim)) steps.  ValueError, before any draw, when
    the spec is not quaternionic, n_samples < 2 (no standard error) or
    n_samples * n_steps exceeds the path-step budget.  A vanishing rule
    passes when |estimate| < 3 stderr; a pattern surviving the parity
    classification must exceed 5 stderr.
    """
    spec = cfg.spec
    _require_quaternionic(spec)
    _check_sample_count(n_samples, cfg.n_steps)
    mono, deriv = rule_pattern(spec, rule_id, indices)
    vanishing = _moment_decomposition(mono, deriv, spec.m) == {}
    sign = (-1.0) ** sum(deriv)
    inv_haar = 1.0 / spec.haar_factor

    svals = _path_rng(cfg.seed, _TIME_STREAM).uniform(0.0, 1.0, size=n_samples)
    late = svals >= 0.5
    t_sim = np.where(late, 1.0 - svals, svals)
    t_ker = np.where(late, svals, 1.0 - svals)
    steps = np.maximum(8, np.ceil(cfg.n_steps * t_sim)).astype(int)
    x, z = _simulate(spec, t_sim, steps, cfg.seed, np.arange(n_samples))

    vals = np.empty(n_samples)
    for is_late, terms in ((True, [(1, (), deriv)]), (False, _ibp_terms(mono, deriv))):
        rows = np.flatnonzero(late == is_late)
        inv_x, inv_z = -x[rows], -z[rows]
        total = np.zeros(len(rows))
        for c, rest, d in terms:
            results = _query_rows(spec, t_ker[rows], inv_x, inv_z, d, 1e-7)  # absolute floor 1e-10
            values = np.array([_value(res) for res in results])
            total += c * _monomial_value(rest, inv_x, inv_z) * values
        outer = _monomial_value(mono, x[rows], z[rows]) if is_late else 1.0
        vals[rows] = inv_haar * outer * sign * total
    est, se = _mean_stderr(vals)
    passed = abs(est) < 3.0 * se if vanishing else abs(est) > 5.0 * se
    return MomentCheckReport(
        estimate=est,
        stderr=se,
        n_samples=n_samples,
        vanishing_expected=vanishing,
        passed=passed,
        label="rule%d%s" % (rule_id, tuple(indices) if indices else "(default)"),
    )
