"""Symbolic expansion layer at a point of a quaternionic contact manifold.

Builds, over the free torsion/curvature symbol ring, the homogeneous terms of
the special coframe in normal coordinates, the expansion of the special frame
in the nilpotent (left-invariant) frame, the first-order divergence
correction of the intrinsic sublaplacian, the order-zero perturbation
operator P2, and the structural reduction of the second heat invariant

    c1 = Integral_0^1 Integral p(1-s, 0, xi) P2 p(s, xi, 0) d xi ds

to a scalar multiple of the qc scalar curvature kappa.  The reduction is the
combinatorial argument: O(4n) x O(3) invariance of the flat kernel kills all
convolution moments with an odd coordinate parity and classifies the
survivors into six abstract moment symbols; the surviving tensor
contractions then collapse to kappa multiples under the known identities.
A surviving non-kappa symbol is a hard failure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .graded import (
    GradedForm,
    GradedVectorField,
    Poly,
    basis_form,
    frame_inversion,
    homogeneous_orders,
    left_invariant_frame,
    lie_bracket,
    pair,
    zero_form,
)
from .tensors import (
    LinearReducer,
    ReductionError,
    Sym,
    TensorSymbols,
    atom_str,
    identity_relations,
)

__all__ = [
    "CoframeExpansion",
    "ExpansionCoefficients",
    "PerturbationOperator",
    "C1Reduction",
    "UnclassifiedMomentError",
    "RouteMismatchError",
    "build_coframe",
    "expansion_coefficients",
    "divergence_coefficient",
    "divergence_bracket_route",
    "build_P2",
    "reduce_c1",
    "MOMENT_LABELS",
    "moment_exemplar",
]

M_XDX = "M[x.dx]"
M_ZDZ = "M[z.dz]"
M_XZDXDZ = "M[xz.dx.dz]"
M_XXDXDX_PP = "M[xx.dxdx;pp]"
M_XXDXDX_CROSS = "M[xx.dxdx;cross]"
M_X4DZDZ = "M[xxxx.dzdz]"

MOMENT_LABELS = (M_XDX, M_ZDZ, M_XZDXDZ, M_XXDXDX_PP, M_XXDXDX_CROSS, M_X4DZDZ)


class UnclassifiedMomentError(ValueError):
    """A convolution-moment pattern outside the proof's classified cases."""


class RouteMismatchError(ValueError):
    """Closed-form coefficients disagree with the coframe-inversion route."""


def moment_exemplar(label, m):
    """A concrete (monomial exponents, derivative multi-index) in the class.

    Both tuples have length m + 3.  Useful for numeric estimation of the
    moment value by simulation.
    """
    nv = m + 3
    mono = [0] * nv
    deriv = [0] * nv
    if label == M_XDX:
        mono[0] = 1
        deriv[0] = 1
    elif label == M_ZDZ:
        mono[m] = 1
        deriv[m] = 1
    elif label == M_XZDXDZ:
        mono[0] = 1
        mono[m] = 1
        deriv[0] = 1
        deriv[m] = 1
    elif label == M_XXDXDX_PP:
        mono[0] = 2
        deriv[1] = 2
    elif label == M_XXDXDX_CROSS:
        mono[0] = 1
        mono[1] = 1
        deriv[0] = 1
        deriv[1] = 1
    elif label == M_X4DZDZ:
        mono[0] = 2
        mono[1] = 2
        deriv[m] = 2
    else:
        raise ValueError("unknown moment label %r" % label)
    return tuple(mono), tuple(deriv)


def _sym_poly(nv, terms):
    return Poly(nv, {e: c for e, c in terms.items() if c})


@dataclass(frozen=True)
class CoframeExpansion:
    """Homogeneous terms of the special coframe and connection forms."""

    m: int
    theta: tuple  # per alpha: dict order -> GradedForm (orders 1, 3)
    eta: tuple  # per i: dict order -> GradedForm (orders 2, 4)
    omega: dict  # (a, b) global indices -> dict order -> GradedForm (order 2)

    def check_orders(self):
        for tab in list(self.theta) + list(self.eta):
            for l, form in tab.items():
                orders = homogeneous_orders(form)
                if orders not in ([], [l]):
                    raise ValueError("coframe term labeled %d has orders %s" % (l, orders))
        for tab in self.omega.values():
            for l, form in tab.items():
                orders = homogeneous_orders(form)
                if orders not in ([], [l]):
                    raise ValueError("omega term labeled %d has orders %s" % (l, orders))
        return True


def _x_var(nv, a):
    return Poly.variable(nv, a, Sym.rational(1))


def build_coframe(spec, symbols=None):
    """Homogeneous coframe terms in normal coordinates (orders up to 4).

    theta^(1) = dx, theta^(2) = 0, eta^(2) = dz/2 - I x dx, eta^(3) = 0,
    omega^(2)_{ab} = (1/2) R^b_{gda} x_g dx_d, and theta^(3), eta^(4) carry
    the torsion/curvature corrections.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    m, r = spec.m, spec.r
    nv = m + r
    one = Sym.rational(1)

    theta = []
    for a in range(m):
        theta.append({1: basis_form(m, r, a, one)})
    eta = []
    for i in range(r):
        comps = [Poly.zero(nv) for _ in range(nv)]
        for b in range(m):
            terms = {}
            for a in range(m):
                v = spec.J[i][a][b]
                if v:
                    e = [0] * nv
                    e[a] = 1
                    terms[tuple(e)] = Sym.rational(-v)
            comps[b] = _sym_poly(nv, terms)
        comps[m + i] = Poly.constant(nv, Sym.rational(Fraction(1, 2)))
        eta.append({2: GradedForm(m, r, tuple(comps))})

    omega = {}
    half = Fraction(1, 2)
    for a in range(nv):
        for b in range(nv):
            vertical_a, vertical_b = a >= m, b >= m
            if vertical_a != vertical_b:
                continue  # omega_{alpha ibar} = 0 for the special frame
            comps = [Poly.zero(nv) for _ in range(nv)]
            for d in range(m):
                terms = {}
                for g in range(m):
                    sym = symbols.R(b, g, d, a)
                    if sym:
                        e = [0] * nv
                        e[g] = 1
                        terms[tuple(e)] = half * sym
                comps[d] = _sym_poly(nv, terms)
            form = GradedForm(m, r, tuple(comps))
            if not form.is_zero():
                omega[(a, b)] = {2: form}

    third = Sym.rational(Fraction(1, 3))
    for a in range(m):
        acc = zero_form(m, r)
        for b in range(m):
            om = omega.get((b, a), {}).get(2)
            if om is not None:
                acc = acc + om.mul_poly(_x_var(nv, b))
        for i in range(r):
            for g in range(m):
                sym = symbols.T(a, m + i, g)
                if sym:
                    acc = acc + eta[i][2].mul_poly(_x_var(nv, g).scale(-sym))
        for i in range(r):
            for b in range(m):
                sym = symbols.T(a, m + i, b)
                if sym:
                    acc = acc + theta[b][1].mul_poly(_x_var(nv, m + i).scale(sym))
        acc = acc.scale(third)
        if not acc.is_zero():
            theta[a][3] = acc

    quarter = Sym.rational(Fraction(1, 4))
    for i in range(r):
        acc = zero_form(m, r)
        for j in range(r):
            om = omega.get((m + j, m + i), {}).get(2)
            if om is not None:
                acc = acc + om.mul_poly(_x_var(nv, m + j))
        for j in range(r):
            for k in range(r):
                sym = symbols.T(m + i, m + j, m + k)
                if sym:
                    acc = acc + eta[k][2].mul_poly(_x_var(nv, m + j).scale(sym))
        for a in range(m):
            for b in range(m):
                v = spec.J[i][a][b]
                if v and 3 in theta[b]:
                    acc = acc + theta[b][3].mul_poly(_x_var(nv, a).scale(Sym.rational(-2 * v)))
        acc = acc.scale(quarter)
        if not acc.is_zero():
            eta[i][4] = acc

    cof = CoframeExpansion(m=m, theta=tuple(theta), eta=tuple(eta), omega=omega)
    cof.check_orders()
    return cof


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Low-order frame expansion in the nilpotent frame.

    s_x[(alpha, beta)]: order-2 coefficient of Xtilde_beta in X_alpha;
    r_x[(alpha, j)]: order-3 coefficient of Vtilde_j in X_alpha;
    s_v[(i, beta)]: order-1 coefficient of Xtilde_beta in V_i;
    r_v[(i, j)]: order-2 coefficient of Vtilde_j in V_i.
    """

    m: int
    s_x: dict
    r_x: dict
    s_v: dict
    r_v: dict


def _closed_form_coefficients(spec, symbols):
    m, r = spec.m, spec.r
    nv = m + r
    R, T = symbols.R, symbols.T

    def bump(terms, coords, sym):
        """terms[x^coords] += sym, for the multiset of coordinates coords."""
        if sym:
            e = [0] * nv
            for c in coords:
                e[c] += 1
            e = tuple(e)
            prev = terms.get(e)
            terms[e] = sym if prev is None else prev + sym

    s_x, r_x, s_v, r_v = {}, {}, {}, {}
    for alpha in range(m):
        for beta in range(m):
            terms = {}
            for g in range(m):
                for d in range(m):
                    bump(terms, (g, d), R(beta, g, alpha, d) * Fraction(-1, 6))
            for i in range(r):
                bump(terms, (m + i,), T(beta, m + i, alpha) * Fraction(-1, 3))
            s_x[(alpha, beta)] = _sym_poly(nv, terms)
    for alpha in range(m):
        for j in range(r):
            terms = {}
            for g in range(m):
                for i in range(r):
                    bump(terms, (g, m + i), R(m + j, g, alpha, m + i) * Fraction(-1, 8))
            for gp in range(m):
                for dp in range(m):
                    v = spec.J[j][gp][dp]
                    if not v:
                        continue
                    w12, w6 = Fraction(v, 12), Fraction(v, 6)
                    for g in range(m):
                        for d in range(m):
                            bump(terms, (gp, g, d), R(dp, d, alpha, g) * w12)
                    for k in range(r):
                        bump(terms, (gp, m + k), T(dp, m + k, alpha) * w6)
            r_x[(alpha, j)] = _sym_poly(nv, terms)
    for i in range(r):
        for beta in range(m):
            terms = {}
            for g in range(m):
                bump(terms, (g,), T(beta, m + i, g) * Fraction(1, 3))
            s_v[(i, beta)] = _sym_poly(nv, terms)
    for i in range(r):
        for j in range(r):
            terms = {}
            for k in range(r):
                bump(terms, (m + k,), T(m + j, m + k, m + i) * Fraction(-1, 4))
            for g in range(m):
                for d in range(m):
                    v = spec.J[j][g][d]
                    if not v:
                        continue
                    w = Fraction(-v, 6)
                    for dp in range(m):
                        bump(terms, (g, dp), T(d, m + i, dp) * w)
            r_v[(i, j)] = _sym_poly(nv, terms)
    return ExpansionCoefficients(m=m, s_x=s_x, r_x=r_x, s_v=s_v, r_v=r_v)


def _recursion_coefficients(spec, symbols):
    coframe = build_coframe(spec, symbols)
    Xs, Vs = left_invariant_frame(spec, scalar=Sym.rational)
    out = frame_inversion(
        list(coframe.theta), list(coframe.eta), Xs, Vs, max_order=3, one=Sym.rational(1)
    )
    m, r = spec.m, spec.r
    s_x, r_x, s_v, r_v = {}, {}, {}, {}
    for alpha in range(m):
        tab = out[alpha]
        for beta in range(m):
            s_x[(alpha, beta)] = tab["s"][(beta, 2)]
        for j in range(r):
            r_x[(alpha, j)] = tab["r"][(j, 3)]
    for i in range(r):
        tab = out[m + i]
        for beta in range(m):
            s_v[(i, beta)] = tab["s"][(beta, 1)]
        for j in range(r):
            r_v[(i, j)] = tab["r"][(j, 2)]
    return ExpansionCoefficients(m=m, s_x=s_x, r_x=r_x, s_v=s_v, r_v=r_v), out


def expansion_coefficients(spec, symbols=None, check_routes=True):
    """Frame-expansion coefficient table; optionally cross-checked.

    With check_routes, the closed forms are compared term by term against the
    coframe-inversion recursion; a mismatch raises RouteMismatchError.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    closed = _closed_form_coefficients(spec, symbols)
    if check_routes:
        rec, raw = _recursion_coefficients(spec, symbols)
        for name in ("s_x", "r_x", "s_v", "r_v"):
            a = getattr(closed, name)
            b = getattr(rec, name)
            for key in a:
                if a[key] != b[key]:
                    raise RouteMismatchError(
                        "coefficient %s%s differs between the closed form and the recursion"
                        % (name, key)
                    )
        # vanishing orders reported in the source derivation
        m, r = spec.m, spec.r
        for alpha in range(m):
            tab = raw[alpha]
            for beta in range(m):
                if not tab["s"][(beta, 1)].is_zero():
                    raise RouteMismatchError("s^(1) should vanish for horizontal targets")
            for j in range(r):
                for l in (1, 2):
                    if not tab["r"][(j, l)].is_zero():
                        raise RouteMismatchError("r^(%d) should vanish for horizontal targets" % l)
    return closed


def divergence_coefficient(spec, symbols=None, coeffs=None):
    """Leading divergence correction of the dilated co-frame, per horizontal index.

    Returns the list over alpha of

        sum_b X_b(s_a^{b(2)}) - X_a(sum_b s_b^{b(2)})
        + sum_i V_i(r_a^{i(3)}) - X_a(sum_i r_i^{i(2)})

    in the nilpotent frame; each entry is homogeneous of weight one.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    if coeffs is None:
        coeffs = expansion_coefficients(spec, symbols, check_routes=False)
    m, r = spec.m, spec.r
    Xs, Vs = left_invariant_frame(spec, scalar=Sym.rational)
    trace_s = Poly.zero(m + r)
    for beta in range(m):
        trace_s = trace_s + coeffs.s_x[(beta, beta)]
    trace_r = Poly.zero(m + r)
    for i in range(r):
        trace_r = trace_r + coeffs.r_v[(i, i)]
    out = []
    for alpha in range(m):
        acc = Poly.zero(m + r)
        for beta in range(m):
            acc = acc + Xs[beta].apply(coeffs.s_x[(alpha, beta)])
        acc = acc - Xs[alpha].apply(trace_s)
        for i in range(r):
            acc = acc + Vs[i].apply(coeffs.r_x[(alpha, i)])
        acc = acc - Xs[alpha].apply(trace_r)
        out.append(acc)
    return out


def _frame_field(spec, coeffs_x, coeffs_v):
    """Polynomial-coefficient combination sum c_b Xtilde_b + sum d_j Vtilde_j."""
    Xs, Vs = left_invariant_frame(spec, scalar=Sym.rational)
    m, r = spec.m, spec.r
    nv = m + r
    total = GradedVectorField(m, r, tuple(Poly.zero(nv) for _ in range(nv)))
    for b in range(m):
        if not coeffs_x[b].is_zero():
            total = total + Xs[b].mul_poly(coeffs_x[b])
    for j in range(r):
        if not coeffs_v[j].is_zero():
            total = total + Vs[j].mul_poly(coeffs_v[j])
    return total


def divergence_bracket_route(spec, symbols=None, coeffs=None):
    """The same divergence coefficients from the structure-function brackets.

    Recomputes the order-two part of sum_a theta_a^eps([X_a^eps, X_alpha^eps])
    directly: theta^(1)([X, X^(1)] + [X^(1), X]) + theta^(3)([X, X]) plus the
    vertical contributions through eta^(2) and eta^(4).
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    if coeffs is None:
        coeffs = expansion_coefficients(spec, symbols, check_routes=False)
    coframe = build_coframe(spec, symbols)
    m, r = spec.m, spec.r
    nv = m + r
    Xs, Vs = left_invariant_frame(spec, scalar=Sym.rational)
    X1 = [
        _frame_field(
            spec,
            [coeffs.s_x[(alpha, b)] for b in range(m)],
            [coeffs.r_x[(alpha, j)] for j in range(r)],
        )
        for alpha in range(m)
    ]
    V0 = [
        _frame_field(
            spec,
            [coeffs.s_v[(i, b)] for b in range(m)],
            [coeffs.r_v[(i, j)] for j in range(r)],
        )
        for i in range(r)
    ]
    out = []
    for alpha in range(m):
        acc = Poly.zero(nv)
        for beta in range(m):
            br = lie_bracket(Xs[beta], X1[alpha]) + lie_bracket(X1[beta], Xs[alpha])
            acc = acc + pair(coframe.theta[beta][1], br)
            th3 = coframe.theta[beta].get(3)
            if th3 is not None:
                acc = acc + pair(th3, lie_bracket(Xs[beta], Xs[alpha]))
        for i in range(r):
            br = lie_bracket(Vs[i], X1[alpha]) + lie_bracket(V0[i], Xs[alpha])
            acc = acc + pair(coframe.eta[i][2], br)
            eta4 = coframe.eta[i].get(4)
            if eta4 is not None:
                acc = acc + pair(eta4, lie_bracket(Vs[i], Xs[alpha]))
        out.append(acc)
    return out


@dataclass(frozen=True)
class PerturbationOperator:
    """Differential operator in the nilpotent frame.

    second maps ordered pairs of frame labels (("X", a) or ("V", i)) to
    polynomial coefficients; first maps single labels.  P2 is homogeneous of
    order zero: every coefficient weight cancels the derivative weights.
    """

    m: int
    r: int
    second: dict
    first: dict

    def is_zero(self):
        return all(p.is_zero() for p in self.second.values()) and all(
            p.is_zero() for p in self.first.values()
        )

    def check_order_zero(self):
        from .graded import poly_part

        def label_weight(lbl):
            return 1 if lbl[0] == "X" else 2

        for (la, lb), poly in self.second.items():
            want = label_weight(la) + label_weight(lb)
            if poly_part(poly, self.m, self.r, want) != poly:
                raise ValueError("second-order term %s is not weight-%d homogeneous" % ((la, lb), want))
        for lbl, poly in self.first.items():
            want = label_weight(lbl)
            if poly_part(poly, self.m, self.r, want) != poly:
                raise ValueError("first-order term %s is not weight-%d homogeneous" % (lbl, want))
        return True


def build_P2(spec, symbols=None, coeffs=None, div=None):
    """Order-zero perturbation P2 = X_a X_a^(1) + X_a^(1) X_a + (div) X_a.

    Expanded into the canonical nilpotent-frame form: coefficients on ordered
    X X pairs, a merged X V term (the frames commute), and first-order X / V
    terms.  No V V term can appear: X^(1) carries at most one vertical factor.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    if coeffs is None:
        coeffs = expansion_coefficients(spec, symbols, check_routes=False)
    if div is None:
        div = divergence_coefficient(spec, symbols, coeffs)
    m, r = spec.m, spec.r
    nv = m + r
    Xs, _ = left_invariant_frame(spec, scalar=Sym.rational)
    second = {}
    first = {}

    def add_second(key, poly):
        if poly.is_zero():
            return
        cur = second.get(key)
        second[key] = poly if cur is None else cur + poly

    def add_first(key, poly):
        if poly.is_zero():
            return
        cur = first.get(key)
        first[key] = poly if cur is None else cur + poly

    for alpha in range(m):
        for beta in range(m):
            s = coeffs.s_x[(alpha, beta)]
            if not s.is_zero():
                add_second((("X", alpha), ("X", beta)), s)
                add_second((("X", beta), ("X", alpha)), s)
            add_first(("X", beta), Xs[alpha].apply(s))
        for j in range(r):
            rr = coeffs.r_x[(alpha, j)]
            if not rr.is_zero():
                add_second((("X", alpha), ("V", j)), rr.scale(Sym.rational(2)))
            add_first(("V", j), Xs[alpha].apply(rr))
        add_first(("X", alpha), div[alpha])
    second = {k: v for k, v in second.items() if not v.is_zero()}
    first = {k: v for k, v in first.items() if not v.is_zero()}
    return PerturbationOperator(m=m, r=r, second=second, first=first)


def _parity(e):
    """Bit mask of the coordinates carrying an odd exponent."""
    mask = 0
    for c, k in enumerate(e):
        if k & 1:
            mask |= 1 << c
    return mask


def _coordinate_terms(spec, op):
    """Expand a frame-form operator into parity-surviving coordinate terms.

    Returns ({derivative multi-index tuple: coefficient Poly}, killed), with
    duplicates combined and derivative indices global coordinates.  A
    monomial whose per-coordinate parity differs from its derivative's is a
    moment the flat kernel's invariance kills (the first test of
    _moment_decomposition), so it is dropped before its coefficient is
    multiplied out; killed counts the distinct (derivative, monomial)
    patterns dropped that way.
    """
    m, r = spec.m, spec.r
    nv = m + r
    Xs, Vs = left_invariant_frame(spec, scalar=Sym.rational)
    fields = {("X", a): X for a, X in enumerate(Xs)}
    fields.update({("V", i): V for i, V in enumerate(Vs)})

    def split(poly):
        """The terms of poly as (exponents, coefficient, parity mask) triples."""
        return [(e, c, _parity(e)) for e, c in poly.terms.items()]

    split_comps = {lbl: [split(p) for p in F.comps] for lbl, F in fields.items()}
    acc = {}
    killed = set()

    def add(deriv, left, right):
        """Accumulate left * right (split polys) under deriv, multiplying survivors only."""
        want = _parity(deriv)
        terms = {}
        for e1, c1, p1 in left:
            for e2, c2, p2 in right:
                e = tuple(map(operator.add, e1, e2))
                if p1 ^ p2 != want:
                    killed.add((deriv, e))
                    continue
                c = c1 * c2
                prev = terms.get(e)
                terms[e] = c if prev is None else prev + c
        poly = Poly(nv, terms)
        if poly.is_zero():
            return
        cur = acc.get(deriv)
        acc[deriv] = poly if cur is None else cur + poly

    def unit(*coords):
        deriv = [0] * nv
        for a in coords:
            deriv[a] += 1
        return tuple(deriv)

    for (la, lb), coeff in op.second.items():
        A, B = fields[la], fields[lb]
        for a in range(nv):
            if A.comps[a].is_zero():
                continue
            coeff_a = split(coeff * A.comps[a])
            for b, right in enumerate(split_comps[lb]):
                if right:
                    add(unit(a, b), coeff_a, right)
        # A acting on B's coefficients: first-order remainder
        left = split(coeff)
        for b in range(nv):
            inner = A.apply(B.comps[b])
            if not inner.is_zero():
                add(unit(b), left, split(inner))
    for lbl, coeff in op.first.items():
        left = split(coeff)
        for a, right in enumerate(split_comps[lbl]):
            if right:
                add(unit(a), left, right)
    return {k: v for k, v in acc.items() if not v.is_zero()}, len(killed)


def _moment_decomposition(mono, deriv, m):
    """Classify one monomial-derivative pattern of the convolution moment.

    Returns {} when parity kills it, a dict {label: integer multiplicity}
    when it survives, and raises UnclassifiedMomentError outside the cases
    established for the flat kernel.
    """
    mu = mono[:m]
    nu = mono[m:]
    kx = deriv[:m]
    kz = deriv[m:]
    for a in range(m):
        if (mu[a] + kx[a]) % 2:
            return {}
    for i in range(len(nu)):
        if (nu[i] + kz[i]) % 2:
            return {}
    sig = (sum(mu), sum(nu), sum(kx), sum(kz))

    def expand(exps):
        out = []
        for idx, k in enumerate(exps):
            out.extend([idx] * k)
        return out

    if sig == (1, 0, 1, 0):
        return {M_XDX: 1}
    if sig == (0, 1, 0, 1):
        return {M_ZDZ: 1}
    if sig == (1, 1, 1, 1):
        return {M_XZDXDZ: 1}
    if sig == (2, 0, 2, 0):
        a1, a2 = expand(mu)
        c1, c2 = expand(kx)
        pp = 1 if (a1 == a2 and c1 == c2) else 0
        cross = (1 if (a1 == c1 and a2 == c2) else 0) + (1 if (a1 == c2 and a2 == c1) else 0)
        out = {}
        if pp:
            out[M_XXDXDX_PP] = pp
        if cross:
            out[M_XXDXDX_CROSS] = cross
        return out
    if sig == (4, 0, 0, 2):
        a1, a2, a3, a4 = expand(mu)
        pairings = (
            (1 if (a1 == a2 and a3 == a4) else 0)
            + (1 if (a1 == a3 and a2 == a4) else 0)
            + (1 if (a1 == a4 and a2 == a3) else 0)
        )
        return {M_X4DZDZ: pairings} if pairings else {}
    raise UnclassifiedMomentError(
        "moment pattern x^%s z^%s dx^%s dz^%s is outside the classified cases"
        % (mu, nu, kx, kz)
    )


@dataclass(frozen=True)
class C1Reduction:
    """Outcome of the structural c1 reduction."""

    n: int
    result: Sym  # kappa * sum_k a_k M_k
    kappa_coefficients: dict  # moment label -> Fraction
    log: tuple
    classified_terms: int
    parity_killed_terms: int

    def final_line(self):
        if self.result.is_zero():
            return "c1 = 0"
        parts = []
        for label in MOMENT_LABELS:
            c = self.kappa_coefficients.get(label)
            if c:
                parts.append("(%s)*%s" % (c, label))
        return "c1 = (%s) * kappa" % " + ".join(parts)


def reduce_c1(spec, symbols=None, check_routes=True):
    """Reduce the second-invariant convolution integral to a kappa multiple.

    Applies the parity/invariance classification to every coordinate term of
    P2, collects the tensor coefficient of each abstract moment symbol, and
    reduces it with the contraction identities.  Any surviving non-kappa
    symbol raises ReductionError (it would contradict the universality of
    the second invariant).
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    m, r = spec.m, spec.r
    coeffs = expansion_coefficients(spec, symbols, check_routes=check_routes)
    div = divergence_coefficient(spec, symbols, coeffs)
    op = build_P2(spec, symbols, coeffs, div)
    coord, killed = _coordinate_terms(spec, op)

    log = []
    acc = Sym.zero()
    classified = 0
    per_class_counts = {}
    for deriv, poly in sorted(coord.items()):
        for mono in sorted(poly.terms):
            c = poly.terms[mono]
            decomp = _moment_decomposition(mono, deriv, m)
            if not decomp:
                killed += 1
                continue
            classified += 1
            for label, mult in decomp.items():
                per_class_counts[label] = per_class_counts.get(label, 0) + 1
                acc = acc + c * mult * Sym.symbol(("M", label))
    log.append(
        "[moments] %d terms survive parity, %d killed; classes: %s"
        % (
            classified,
            killed,
            ", ".join("%s x%d" % (k, v) for k, v in sorted(per_class_counts.items())),
        )
    )

    relations = identity_relations(symbols)
    reducer = LinearReducer(relations)
    kappa_atom = ("kap",)
    coefficients = {}
    result = Sym.zero()
    for key, coeff in sorted(acc.coefficient_split("M").items()):
        if not key:
            raise ReductionError("tensor terms without a moment class appeared")
        label = key[0][1]
        sublog = []
        nf = reducer.reduce(coeff, log=sublog)
        for line in sublog:
            log.append("[rewrite %s] %s" % (label, line))
        survivors = nf.atoms() - {kappa_atom}
        if survivors:
            raise ReductionError(
                "moment %s kept non-kappa symbols: %s"
                % (label, ", ".join(sorted(atom_str(a) for a in survivors)))
            )
        kc = nf.terms.get((kappa_atom,), Fraction(0))
        if () in nf.terms:
            raise ReductionError("moment %s kept a symbol-free constant" % label)
        if kc:
            coefficients[label] = kc
            result = result + Sym.symbol(("M", label)) * Sym.symbol(kappa_atom, kc)
        log.append("[result %s] coefficient of kappa: %s" % (label, kc))

    red = C1Reduction(
        n=spec.n if spec.n else 0,
        result=result,
        kappa_coefficients=coefficients,
        log=tuple(log),
        classified_terms=classified,
        parity_killed_terms=killed,
    )
    return red
