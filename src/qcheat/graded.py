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

A Poly keys its terms by packed exponents: one int holding an 8-bit field
(_FIELD) per coordinate, coordinate 0 in the highest field.  A product's key is
the sum of its factors' keys, a derivative's a shift and a subtract, and
int order is the order of the exponent tuples.  An exponent may reach
MAX_EXPONENT; the top bit of each field is a guard, so a sum of two keys
never carries into the next field, and every product, constructor and
from_packed call raises OverflowError when a result exponent leaves the
range.  The tuple-keyed `terms` view and constructor serve the edges
(tests, moment patterns, printing).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

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


# bits per coordinate of a packed exponent key; the top bit of each field
# is the guard that catches an exponent past MAX_EXPONENT
_FIELD = 8
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


@lru_cache(maxsize=None)
def _out_of_field(nvars):
    """The bits no valid key of nvars coordinates sets: the guards, everything
    above the top field, and (as an infinite run of ones) the sign."""
    return ~int.from_bytes(bytes([MAX_EXPONENT]) * nvars, "big")


@lru_cache(maxsize=None)
def parity_mask(nvars):
    """The low bit of every field: key & parity_mask(nvars) is the key's odd-exponent pattern."""
    return int.from_bytes(b"\x01" * nvars, "big")


def _shift(nvars, a):
    return _FIELD * (nvars - 1 - a)


def _check_keys(nvars, keys):
    if keys and reduce(operator.or_, keys) & _out_of_field(nvars):
        raise OverflowError("an exponent leaves the range 0..%d of its %d-bit field" % (MAX_EXPONENT, _FIELD))


def pack_exponents(e):
    """The packed key of an exponent tuple (its length is the number of coordinates)."""
    try:
        key = int.from_bytes(bytes(e), "big")
    except ValueError:  # an exponent outside 0..255
        key = -1
    _check_keys(len(e), [key])
    return key


def unpack_exponents(key, nvars):
    """The exponent tuple of a packed key."""
    return tuple(key.to_bytes(nvars, "big"))


class Poly:
    """Sparse polynomial: dict of packed exponent keys to ring coefficients.

    Poly(nvars, terms) takes exponent tuples, and the terms property gives
    them back; the arithmetic works on the packed dict.
    """

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent %r needs %d entries" % (e, nvars))
                    t[pack_exponents(e)] = c
        self.packed = t

    @classmethod
    def _of(cls, nvars, packed):
        """A Poly that takes packed, a dict of valid keys to nonzero coefficients, as is."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.packed = packed
        return out

    @classmethod
    def from_packed(cls, nvars, packed):
        """A Poly of the nonzero entries of a packed-key dict; OverflowError on an invalid key."""
        t = {e: c for e, c in packed.items() if c}
        _check_keys(nvars, t)
        return cls._of(nvars, t)

    @property
    def terms(self):
        """The terms as a new dict of exponent tuples to coefficients."""
        nv = self.nvars
        return {unpack_exponents(e, nv): c for e, c in self.packed.items()}

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls._of(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars, a):
        return cls._of(nvars, {1 << _shift(nvars, a): Sym.rational(1)})

    def is_zero(self):
        return not self.packed

    def max_exponent(self):
        """The largest exponent of any coordinate in any term (0 for the zero polynomial)."""
        nv = self.nvars
        return max((max(e.to_bytes(nv, "big")) for e in self.packed), default=0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.packed == other.packed
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.packed.items())))

    def __add__(self, other):
        t = dict(self.packed)
        for e, c in other.packed.items():
            s = t.get(e)
            s = c if s is None else s + c
            if not s:
                t.pop(e, None)
            else:
                t[e] = s
        return Poly._of(self.nvars, t)

    def __neg__(self):
        return Poly._of(self.nvars, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return _sum_of_products(self.nvars, [(self, other)])

    def scale(self, c):
        t = {}
        if c:
            for e, v in self.packed.items():
                s = v * c
                if s:
                    t[e] = s
        return Poly._of(self.nvars, t)

    def diff(self, a):
        shift = _shift(self.nvars, a)
        unit = 1 << shift
        field = (1 << _FIELD) - 1
        t = {}
        for e, c in self.packed.items():
            k = (e >> shift) & field
            if k:
                t[e - unit] = c * k
        return Poly._of(self.nvars, t)


def _sum_of_products(nvars, pairs):
    """sum of f * g over the (f, g) pairs of Polys, gathered in one dict.

    A product key is the sum of two valid keys, so each field holds the true
    exponent (below 2 ** _FIELD, no carry); the keys are checked once at the end.
    """
    t = {}
    for f, g in pairs:
        g_terms = g.packed.items()
        if not g_terms:
            continue
        for e1, c1 in f.packed.items():
            for e2, c2 in g_terms:
                e = e1 + e2
                c = c1 * c2
                s = t.get(e)
                s = c if s is None else s + c
                if not s:
                    t.pop(e, None)
                else:
                    t[e] = s
    _check_keys(nvars, t)
    return Poly._of(nvars, t)


def _weights(m, r):
    return (1,) * m + (2,) * r


def _key_weight(e, nvars, m):
    """Weight of the monomial of packed key e: its first m coordinates weigh 1, the rest 2."""
    b = e.to_bytes(nvars, "big")
    return sum(b) + sum(b[m:])


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
                    coeffs[1 << _shift(nv, b)] = Sym.rational(2 * v)
            comps[m + i] = comps[m + i] + Poly._of(nv, coeffs)
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
        return _poly_weight_part(obj, m, l)
    if not isinstance(obj, _Graded):
        raise TypeError("unsupported object: %r" % type(obj))
    w, sign = obj.weights, obj.direction_sign
    comps = tuple(_poly_weight_part(p, obj.m, l - sign * w[a]) for a, p in enumerate(obj.comps))
    return type(obj)(obj.m, obj.r, comps)


def _poly_weight_part(p, m, want):
    nv = p.nvars
    return Poly._of(nv, {e: c for e, c in p.packed.items() if _key_weight(e, nv, m) == want})


def homogeneous_orders(obj):
    """Sorted list of orders on which the object has nonzero components."""
    if not isinstance(obj, _Graded):
        raise TypeError("unsupported object: %r" % type(obj))
    w, sign = obj.weights, obj.direction_sign
    orders = set()
    for a, p in enumerate(obj.comps):
        for e in p.packed:
            orders.add(_key_weight(e, p.nvars, obj.m) + sign * w[a])
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
