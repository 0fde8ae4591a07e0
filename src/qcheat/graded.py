"""Exact calculus of polynomial vector fields and 1-forms with anisotropic weights.

Coordinates split into m horizontal variables of weight 1 and r vertical
variables of weight 2.  Monomial weight is sum(exp_x) + 2 sum(exp_z); the
coordinate directions carry weight -1 / -2 as vector fields and +1 / +2 as
1-forms, so every object decomposes into eigenparts of the Lie derivative
along the grading generator P = sum x_a d/dx_a + 2 sum z_i d/dz_i.

Coefficients are exact tensors.Sym values, polynomials in the free
torsion/curvature symbols over the rationals (plain rationals are the
symbol-free ones).  A coefficient is zero exactly when it is falsy.
Equality is syntactic after dropping zero terms, so all identity checks are
exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .tensors import InvariantError, Sym

__all__ = [
    "Poly",
    "GradedVectorField",
    "GradedForm",
    "euler_field",
    "left_invariant_frame",
    "homogeneous_part",
    "homogeneous_orders",
    "lie_bracket",
    "pair",
    "lie_derivative_form",
    "frame_inversion",
]


class Poly:
    """Sparse polynomial: dict of exponent tuples to ring coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, a):
        e = [0] * nvars
        e[a] = 1
        return cls(nvars, {tuple(e): Sym.rational(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            s = c if s is None else s + c
            if not s:
                t.pop(e, None)
            else:
                t[e] = s
        out = Poly(self.nvars)
        out.terms = t
        return out

    def __neg__(self):
        out = Poly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return _sum_of_products(self.nvars, [(self, other)])

    def scale(self, c):
        if not c:
            return Poly(self.nvars)
        out = Poly(self.nvars)
        out.terms = {}
        for e, v in self.terms.items():
            s = v * c
            if s:
                out.terms[e] = s
        return out

    def diff(self, a):
        t = {}
        for e, c in self.terms.items():
            k = e[a]
            if k:
                e2 = list(e)
                e2[a] = k - 1
                t[tuple(e2)] = c * k
        out = Poly(self.nvars)
        out.terms = t
        return out


def _sum_of_products(nvars, pairs):
    """sum of f * g over the (f, g) pairs of Polys, gathered in one dict."""
    t = {}
    for f, g in pairs:
        g_terms = g.terms.items()
        if not g_terms:
            continue
        for e1, c1 in f.terms.items():
            for e2, c2 in g_terms:
                e = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                s = t.get(e)
                s = c if s is None else s + c
                if not s:
                    t.pop(e, None)
                else:
                    t[e] = s
    out = Poly(nvars)
    out.terms = t
    return out


def _weights(m, r):
    return (1,) * m + (2,) * r


def monomial_weight(e, weights):
    return sum(map(operator.mul, e, weights))


@dataclass(frozen=True)
class _Graded:
    """Polynomial coefficients comps[a] on the coordinate directions.

    Direction a has weight direction_sign * weights[a]; the operations build
    objects of the caller's own type.
    """

    m: int
    r: int
    comps: tuple  # nvars Polys

    @property
    def nvars(self):
        return self.m + self.r

    @property
    def weights(self):
        return _weights(self.m, self.r)

    def is_zero(self):
        return all(p.is_zero() for p in self.comps)

    def __add__(self, other):
        return type(self)(self.m, self.r, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return type(self)(self.m, self.r, tuple(-p for p in self.comps))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return type(self)(self.m, self.r, tuple(p.scale(c) for p in self.comps))

    def mul_poly(self, f):
        return type(self)(self.m, self.r, tuple(f * p for p in self.comps))


class GradedVectorField(_Graded):
    """Vector field sum_a comps[a] d/dxi_a; direction a has weight -weights[a]."""

    direction_sign = -1

    def apply(self, f):
        """Derivation on a polynomial: sum_a comps[a] * df/dxi_a."""
        return _sum_of_products(self.nvars, self._apply_pairs(f))

    def _apply_pairs(self, f):
        """The nonzero (comps[a], df/dxi_a) pairs whose products sum to apply(f)."""
        pairs = ((p, f.diff(a)) for a, p in enumerate(self.comps) if not p.is_zero())
        return [(p, d) for p, d in pairs if not d.is_zero()]


class GradedForm(_Graded):
    """1-form sum_a comps[a] dxi_a; direction a has weight +weights[a]."""

    direction_sign = 1


def zero_vf(m, r):
    nv = m + r
    return GradedVectorField(m, r, tuple(Poly.zero(nv) for _ in range(nv)))


def zero_form(m, r):
    nv = m + r
    return GradedForm(m, r, tuple(Poly.zero(nv) for _ in range(nv)))


def basis_vf(m, r, a):
    nv = m + r
    comps = [Poly.zero(nv) for _ in range(nv)]
    comps[a] = Poly.constant(nv, Sym.rational(1))
    return GradedVectorField(m, r, tuple(comps))


def basis_form(m, r, a):
    nv = m + r
    comps = [Poly.zero(nv) for _ in range(nv)]
    comps[a] = Poly.constant(nv, Sym.rational(1))
    return GradedForm(m, r, tuple(comps))


def euler_field(m, r):
    """Grading generator P = sum x_a d/dx_a + 2 sum z_i d/dz_i."""
    nv = m + r
    comps = [Poly.variable(nv, a).scale(1 if a < m else 2) for a in range(nv)]
    return GradedVectorField(m, r, tuple(comps))


def left_invariant_frame(spec):
    """Left-invariant frame of the tangent group.

    X_a = d/dx_a + 2 sum_{b,i} I^i_{ba} x_b d/dz_i   (order -1)
    V_i = 2 d/dz_i                                   (order -2)
    """
    m, r = spec.m, spec.r
    nv = m + r
    Xs = []
    for a in range(m):
        comps = [Poly.zero(nv) for _ in range(nv)]
        comps[a] = Poly.constant(nv, Sym.rational(1))
        for i in range(r):
            coeffs = {}
            for b in range(m):
                v = spec.J[i][b][a]
                if v:
                    e = [0] * nv
                    e[b] = 1
                    coeffs[tuple(e)] = Sym.rational(2 * v)
            comps[m + i] = comps[m + i] + Poly(nv, coeffs)
        Xs.append(GradedVectorField(m, r, tuple(comps)))
    Vs = []
    for i in range(r):
        comps = [Poly.zero(nv) for _ in range(nv)]
        comps[m + i] = Poly.constant(nv, Sym.rational(2))
        Vs.append(GradedVectorField(m, r, tuple(comps)))
    return Xs, Vs


def lie_bracket(X, Y):
    """Coordinate Lie bracket [X, Y]; order-additive on homogeneous fields."""
    nv = X.nvars
    comps = []
    for a in range(nv):
        comps.append(X.apply(Y.comps[a]) - Y.apply(X.comps[a]))
    return GradedVectorField(X.m, X.r, tuple(comps))


def pair(omega, X):
    """Pointwise pairing <omega, X> as a polynomial."""
    return _sum_of_products(X.nvars, zip(omega.comps, X.comps))


def lie_derivative_form(X, omega):
    """(L_X omega)_a = X(omega_a) + sum_b omega_b d(X_b)/dxi_a."""
    nv = X.nvars
    comps = []
    for a in range(nv):
        p = X.apply(omega.comps[a])
        for b in range(nv):
            xb = X.comps[b]
            if not (omega.comps[b].is_zero() or xb.is_zero()):
                p = p + omega.comps[b] * xb.diff(a)
        comps.append(p)
    return GradedForm(X.m, X.r, tuple(comps))


def homogeneous_part(obj, l, m=None, r=None):
    """Component of homogeneous order l (Lie-derivative eigenvalue along P).

    Accepts fields, forms, or plain polynomials (the latter need the m/r
    split since functions carry no direction weights).
    """
    if isinstance(obj, Poly):
        if m is None or r is None:
            raise TypeError("polynomial input needs the m/r weight split")
        return _poly_weight_part(obj, _weights(m, r), l)
    if not isinstance(obj, _Graded):
        raise TypeError("unsupported object: %r" % type(obj))
    w, sign = obj.weights, obj.direction_sign
    comps = tuple(_poly_weight_part(p, w, l - sign * w[a]) for a, p in enumerate(obj.comps))
    return type(obj)(obj.m, obj.r, comps)


def _poly_weight_part(p, weights, want):
    out = Poly(p.nvars)
    for e, c in p.terms.items():
        if monomial_weight(e, weights) == want:
            out.terms[e] = c
    return out


def homogeneous_orders(obj):
    """Sorted list of orders on which the object has nonzero components."""
    if not isinstance(obj, _Graded):
        raise TypeError("unsupported object: %r" % type(obj))
    w, sign = obj.weights, obj.direction_sign
    orders = set()
    for a, p in enumerate(obj.comps):
        for e in p.terms:
            orders.add(monomial_weight(e, w) + sign * w[a])
    return sorted(orders)


def frame_inversion(theta_exp, eta_exp, frame_x, frame_v, max_order):
    """Invert a coframe expansion against the nilpotent frame.

    theta_exp[g] / eta_exp[i] map homogeneous order -> GradedForm for the
    horizontal / vertical coframe expansions (orders absent from the dict are
    zero; theta starts at 1, eta at 2).  frame_x / frame_v are the order -1 /
    -2 nilpotent frame fields.  Returns, for every frame element (first the m
    horizontal targets X_a, then the r vertical targets V_i), the coefficient
    table of its expansion

        E = sum_g s[g, l] Xtilde_g + sum_j r[j, l] Vtilde_j

    as dicts {(g, l): Poly} / {(j, l): Poly}, following the duality recursion
    order by order (r first, then s, at each l).  The truncation is graded
    by the target's weight: a horizontal target (order -1) runs
    l = 0..max_order, a vertical target (order -2) stops one order lower, at
    l = 0..max_order - 1.  Both tables then reach max_order orders above
    their target, since s[g, l] Xtilde_g has order l - 1 either way.  Order
    l only reads orders below l (and r at l), so the truncation leaves every
    computed entry unchanged.  Requires the coframe and frame to be dual at
    lowest order.

    A pairing <theta^(k) or eta^(k), field> does not depend on the target,
    so each is computed once per call, keyed by form, order and field; each
    table entry is one sum over its (coefficient, pairing) products.
    """
    m, r = len(frame_x), len(frame_v)
    nv = frame_x[0].nvars
    one = Sym.rational(1)
    forms = list(theta_exp) + list(eta_exp)  # theta^g is form g, eta^i is form m + i
    fields = list(frame_x) + list(frame_v)  # X_b is field b, V_j is field m + j

    def lowest(form_table, order, field):
        form = form_table.get(order)
        return Poly.zero(nv) if form is None else pair(form, field)

    # duality at lowest order
    for g in range(m):
        for b in range(m):
            want = Poly.constant(nv, one) if g == b else Poly.zero(nv)
            if lowest(theta_exp[g], 1, frame_x[b]) != want:
                raise InvariantError("theta^(1) and the horizontal frame are not dual")
        for j in range(r):
            if not lowest(theta_exp[g], 1, frame_v[j]).is_zero():
                raise InvariantError("theta^(1) must annihilate the vertical frame")
    for i in range(r):
        for j in range(r):
            want = Poly.constant(nv, one) if i == j else Poly.zero(nv)
            if lowest(eta_exp[i], 2, frame_v[j]) != want:
                raise InvariantError("eta^(2) and the vertical frame are not dual")

    # the recursion reads orders above the lowest, each pairing negated once
    neg_pairings = {}

    def neg_pairing(f, order, k):
        """-<order-th term of form f, field k>, computed once per call."""
        key = (f, order, k)
        p = neg_pairings.get(key)
        if p is None:
            p = neg_pairings[key] = -lowest(forms[f], order, fields[k])
        return p

    def entry(f, l, s, rr, r_orders):
        """-(sum over mm < l of s[b, mm] <f^(l-mm+1), X_b>
        + sum over mm < r_orders of r[j, mm] <f^(l-mm+2), V_j>), as one sum."""
        pairs = [
            (s[(b, mm)], neg_pairing(f, l - mm + 1, b))
            for mm in range(l)
            for b in range(m)
            if not s[(b, mm)].is_zero()
        ]
        pairs += [
            (rr[(j, mm)], neg_pairing(f, l - mm + 2, m + j))
            for mm in range(r_orders)
            for j in range(r)
            if not rr[(j, mm)].is_zero()
        ]
        return _sum_of_products(nv, pairs)

    results = []
    for target in range(m + r):
        top = max_order if target < m else max_order - 1
        s = {}
        rr = {}
        for g in range(m):
            s[(g, 0)] = Poly.constant(nv, one) if (target < m and g == target) else Poly.zero(nv)
        for j in range(r):
            rr[(j, 0)] = Poly.constant(nv, one) if (target >= m and j == target - m) else Poly.zero(nv)
        for l in range(1, top + 1):
            for i in range(r):
                rr[(i, l)] = entry(m + i, l, s, rr, l)
            for g in range(m):
                s[(g, l)] = entry(g, l, s, rr, l + 1)
        results.append({"s": s, "r": rr})
    return results
