"""Horizontal-diffusion simulation and statistical kernel validation.

The generator -Delta_sub = sum Xtilde_a^2 drives, per horizontal coordinate,
Brownian motion of variance 2t (BROWNIAN_VARIANCE_FACTOR); the vertical
coordinates follow the Ito integral

    dz_i = 2 sum_{b,a} I^i_{ba} x_b dx_a,

whose Ito correction vanishes (the z-coefficients are linear in x with skew
I, so a field applied to its own vertical coefficient hits the zero diagonal
I^i_{aa}).  With x = sqrt(2) W, z_i = 4 int W^T J^i dW depends on the path
only through its increment and its Levy area, so a path is sampled without
time steps.  At unit time x = sqrt(2) xi with xi = W(1) standard normal, and
the Fourier expansion of the Brownian bridge (Kloeden-Platen-Wright, Stoch.
Anal. Appl. 10, 1992) gives

    z_i = (4/pi) sum_{k>=1} zeta_k^T J^i v_k / k,   v_k = eta_k + sqrt(2) xi,

with zeta_k, eta_k independent standard normal m-vectors.  The first K
modes are drawn.  Given xi, the dropped modes have the covariance
(4/pi)^2 a_K (tr(J^i J^jT) + 2 (J^i xi).(J^j xi)), a_K = pi^2/6 -
sum_{k<=K} 1/k^2, and a Gaussian of exactly that covariance stands in for
them (Wiktorsson, Ann. Appl. Probab. 11, 2001).  So E[z_i z_j] =
8 t^2 tr(J^i J^jT) holds at every K, and the law misses only the tail's
fourth cumulant, O(K^-3).  A path at time t is the unit-time path under
the dilation, x sqrt(t) and z t.  K = ceil(sqrt(n_steps)): n_steps keeps
its meaning as the accuracy and budget knob of SimConfig.  z has one column
per vertical direction of any GroupSpec.

Randomness is counter-based: each path draws from Philox keyed by
(seed, path index), so a path's samples do not depend on which other paths
are drawn or in what order they are evaluated; the uniform time draws of the
convolution estimators use a reserved stream key.  The simulator, _simulate,
works on a block of paths in one array pass: one Philox is re-keyed per path
instead of built per path, which draws the same stream, and every path's
terminal (x, z) has the bits of a one-path pass.  simulate_paths and
check_moment_vanishing each make one call over all their paths, at one K.
The two kernel-based checks take the quaternionic spec only, since the
kernel has three z coordinates.  check_moment_vanishing computes both halves
of its time integral with one array body, over a Leibniz term list per half,
and reads only spec, seed and n_steps of its SimConfig.
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
import operator
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
_BLOCK_NORMALS = 102_400  # normals per array pass of _simulate; bounds its arrays


@dataclass(frozen=True)
class SimConfig:
    """One seeded simulation; n_paths * n_steps is capped at 2e8 path-steps.

    A path samples its Levy area from ceil(sqrt(n_steps)) Fourier modes.  The
    seed is any integer (numpy integers too), taken modulo 2^64.  n_paths,
    n_steps and the seed are stored as Python ints; ValueError for any of
    them that is not an integer.
    """

    spec: object
    t: float
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_point(self.t, ())
        if self.seed is None:
            raise ValueError("seed is mandatory for reproducibility")
        for name in ("n_paths", "n_steps", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError("%s must be an integer, got %r" % (name, getattr(self, name))) from None
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need positive path/step counts")
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


def _n_modes(n_steps):
    """K = ceil(sqrt(n_steps)), the Fourier modes a path draws for n_steps."""
    return math.isqrt(n_steps - 1) + 1


def _simulate(spec, t, n_modes, seed, paths):
    """Terminal (x, z) of each path paths[r] at time t[r], its Levy area from n_modes Fourier modes.

    Path p draws from _path_rng(seed, p), in this order: xi (m normals); the
    tail normals, u (one per pair a < b of horizontal indices) and then h
    (m); then, for each mode k = 1..K, the pair (zeta_k, eta_k) (2m).  So the
    K-mode stream is a prefix of the (K+1)-mode one, and x does not depend
    on K.  At unit time x = sqrt(2) xi and z_i = (4/pi) sum_ab S_ab J^i_ab,
    with

        S = sum_{k<=K} zeta_k v_k^T / k + sqrt(2 a_K) (h xi^T + U),

    v_k = eta_k + sqrt(2) xi, and U the strictly upper triangular matrix
    holding u.  The tail term contracts with J^i to a Gaussian, given xi, of
    covariance 2 a_K ((J^i xi).(J^j xi) + sum_{a<b} J^i_ab J^j_ab) =
    a_K (2 (J^i xi).(J^j xi) + tr(J^i J^jT)), the exact conditional
    covariance of the dropped modes, for every spec and without a matrix
    factorization.  Then x is scaled by sqrt(2 t) and z by 4t/pi, after
    the unit-time path is complete, so a huge t overflows only there.

    A block of at most _BLOCK_NORMALS normals is one array pass.  The Philox
    of _path_rng(seed, 0), set back to its initial state (counter 0, empty
    buffer) with its path word re-keyed to p, draws path p's normals as
    _path_rng(seed, p) would.  Batched and one-path products give the same
    bits, so a path gets the bits of a one-path pass.  OverflowError when a
    terminal sample is not finite.
    """
    m, K = spec.m, n_modes
    J = spec.J_float()
    upper = np.triu_indices(m, 1)
    n_u = len(upper[0])
    width = 2 * m + n_u + 2 * m * K
    tail_scale = math.sqrt(2.0 * (math.pi**2 / 6.0 - math.fsum(1.0 / k**2 for k in range(1, K + 1))))
    inv_k = 1.0 / np.arange(1, K + 1)
    rng = _path_rng(seed, 0)
    state = rng.bit_generator.state
    size = max(1, _BLOCK_NORMALS // width)
    x, z = np.empty((len(paths), m)), np.empty((len(paths), spec.r))
    for s in range(0, len(paths), size):
        block = paths[s : s + size].tolist()
        draws = np.empty((len(block), width))
        for row, p in enumerate(block):
            state["state"]["key"][1] = p
            rng.bit_generator.state = state
            rng.standard_normal(out=draws[row])
        xi = draws[:, :m]
        modes = draws[:, 2 * m + n_u :].reshape(-1, K, 2, m)
        v = modes[:, :, 1] + math.sqrt(2.0) * xi[:, None, :]
        S = (modes[:, :, 0] * inv_k[:, None]).transpose(0, 2, 1) @ v
        tail = draws[:, m + n_u : 2 * m + n_u, None] * xi[:, None, :]  # h xi^T
        tail[:, upper[0], upper[1]] += draws[:, m : m + n_u]  # + U
        S += tail_scale * tail
        x[s : s + size] = xi
        z[s : s + size] = np.einsum("bma,ima->bi", S, J)
    with np.errstate(over="ignore", invalid="ignore"):
        x *= np.sqrt(BROWNIAN_VARIANCE_FACTOR * t)[:, None]
        z *= (t * (2.0 * BROWNIAN_VARIANCE_FACTOR / math.pi))[:, None]
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise OverflowError("a simulated path left the floating-point range")
    return x, z


def simulate_paths(cfg):
    """Terminal samples of the horizontal diffusion at time cfg.t, one path per Philox key (seed, p).

    Each path samples its Levy area from K = ceil(sqrt(cfg.n_steps)) Fourier
    modes and an exact-covariance Gaussian tail (see _simulate); there are no
    time steps.  OverflowError when a sample is not finite.
    """
    n = cfg.n_paths
    t = np.full(n, float(cfg.t))
    return TerminalSamples(*_simulate(cfg.spec, t, _n_modes(cfg.n_steps), cfg.seed, np.arange(n)))


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

    Of cfg only spec, seed and n_steps are read; every sample draws the same
    K = ceil(sqrt(n_steps)) Fourier modes, since the sampler's relative
    accuracy does not depend on t_sim.  ValueError, before any draw, when
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
    x, z = _simulate(spec, t_sim, _n_modes(cfg.n_steps), cfg.seed, np.arange(n_samples))

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
