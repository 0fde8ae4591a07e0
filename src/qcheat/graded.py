"""Exact calculus of polynomial vector fields and 1-forms with anisotropic weights.

Coordinates split into m horizontal variables of weight 1 and r vertical
variables of weight 2.  Monomial weight is sum(exp_x) + 2 sum(exp_z); the
coordinate directions carry weight -1 / -2 as vector fields and +1 / +2 as
1-forms, so every object decomposes into eigenparts of the Lie derivative
along the grading generator P = sum x_a d/dx_a + 2 sum z_i d/dz_i.

Coefficients are polynomials in the free torsion/curvature symbols of
tensors over the rationals.  A Poly holds them as one dict from int keys to
integer numerators, over one positive Poly-wide denominator in lowest terms,
so each value has a single representation: equality is syntactic, and all
identity checks are exact.

A key packs one term's monomial.  Its low _FIELD * nvars bits hold the
exponents, an 8-bit field per coordinate, coordinate 0 in the highest
field; above them sits the interned id (_monomial_id) of the term's atom
monomial, 0 for the symbol-free one.  A product with a symbol-free factor
has key key1 + key2 and numerator num1 * num2.  A product of two symbolic
factors adds the exponent fields and takes the id of the product monomial
(_times), so Poly is a ring over the symbols.  A derivative's key is a
subtract from one field, and int order of symbol-free keys is the order of
the exponent tuples.  An exponent may reach MAX_EXPONENT; the top bit of
each field is a guard, so a sum of two keys never carries into the next
field, and every product, constructor and from_packed call raises
OverflowError when a result exponent leaves the range.

A Sym, a polynomial in the symbols alone, is a Poly in no coordinates: its
keys are the ids themselves.  It is the type at the edges: the constructors
take Sym or rational coefficients, moving each Sym key above the exponent
fields, and the packed view (packed exponent keys) and terms view (exponent
tuples) shift each key back down to give one Sym per monomial, for tests,
moment patterns and printing.  Interned ids are one per process and grow
with the distinct monomials used; nothing sorts by an id, since printing
and the reducer's pivots sort atoms by _atom_key, so the order of first use
never reaches output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

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


class InvariantError(ValueError):
    """A violated invariant of a derivation or of its input (the CLI's exit code 4)."""


_KIND_RANK = {"R": 0, "T": 1, "kap": 2, "M": 3}


def _atom_key(atom):
    return (_KIND_RANK[atom[0]], atom)


def _times(m1, m2):
    """The product of two atom monomials: with both nonempty, its atoms in _atom_key order."""
    return tuple(sorted(m1 + m2, key=_atom_key)) if m1 and m2 else m1 + m2


def atom_str(atom):
    kind = atom[0]
    if kind == "kap":
        return "kappa"
    if kind == "M":
        return atom[1]
    if kind == "T":
        return "T[%d;%d,%d]" % (atom[1] + 1, atom[2] + 1, atom[3] + 1)
    if kind == "R":
        return "R[%d;%d,%d,%d]" % (atom[1] + 1, atom[2] + 1, atom[3] + 1, atom[4] + 1)
    raise ValueError(atom)


# the interned atom monomials, in order of first use, 0 for the empty one
_MONOMIALS = [()]  # id -> monomial
_MONOMIAL_IDS = {(): 0}  # monomial -> id


def _monomial_id(mono):
    """The interned id of an atom monomial, assigned on first use."""
    i = _MONOMIAL_IDS.get(mono)
    if i is None:
        i = _MONOMIAL_IDS[mono] = len(_MONOMIALS)
        _MONOMIALS.append(mono)
    return i


def _ratio(q):
    """(numerator, denominator) of a rational number."""
    if isinstance(q, int):
        return q, 1
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


# bits per coordinate of a packed exponent key; the top bit of each field
# is the guard that catches an exponent past MAX_EXPONENT
_FIELD = 8
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


@lru_cache(maxsize=None)
def _out_of_field(nvars):
    """The bits no packed exponent key of nvars coordinates sets: the guards,
    everything above the top field, and (as an infinite run of ones) the sign."""
    return ~int.from_bytes(bytes([MAX_EXPONENT]) * nvars, "big")


@lru_cache(maxsize=None)
def _guards(nvars):
    """The guard bit of every field: a sum of two keys sets one exactly when an exponent reaches 2 ** (_FIELD - 1)."""
    return int.from_bytes(bytes([1 << (_FIELD - 1)]) * nvars, "big")


@lru_cache(maxsize=None)
def key_masks(nvars):
    """(exponents, parity) masks of the keys of a Poly in nvars coordinates.

    key & exponents is the key's exponent pattern, its atom monomial id
    masked off (a packed exponent key); key & parity is its odd-exponent
    pattern, the low bit of every field.  Parity adds under multiplication:
    a product's pattern is the xor of its factors'.
    """
    return (1 << (_FIELD * nvars)) - 1, int.from_bytes(b"\x01" * nvars, "big")


def _shift(nvars, a):
    return _FIELD * (nvars - 1 - a)


def _check_keys(nvars, keys):
    if keys and reduce(operator.or_, keys) & _out_of_field(nvars):
        raise OverflowError("an exponent leaves the range 0..%d of its %d-bit field" % (MAX_EXPONENT, _FIELD))


def _check_sums(nvars, keys):
    """Raise OverflowError when a key made as a sum of two valid keys has an exponent past MAX_EXPONENT."""
    if keys and reduce(operator.or_, keys) & _guards(nvars):
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


def _monomial_offset(nvars, mono):
    """The bits above the exponent fields that make a symbol-free key the key of the same term times the atom monomial mono."""
    return _monomial_id(mono) << (_FIELD * nvars)


class Poly:
    """Sparse polynomial: integer numerators of packed keys over one denominator.

    Poly(nvars, terms) takes exponent tuples and Sym or rational
    coefficients, and the terms property gives them back; the arithmetic
    works on the numerators.
    """

    __slots__ = ("nvars", "_nums", "_den")

    def __init__(self, nvars, terms=None):
        items = []
        for e, c in (terms or {}).items():
            if c:
                if len(e) != nvars:
                    raise ValueError("exponent %r needs %d entries" % (e, nvars))
                items.append((pack_exponents(e), c))
        p = Poly._from_coefficients(nvars, items)
        self.nvars, self._nums, self._den = nvars, p._nums, p._den

    @classmethod
    def _of(cls, nvars, nums, den=1):
        """A Poly that takes nums, nonzero numerators of valid keys over den in lowest terms, as is."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._nums = nums
        out._den = den
        return out

    @classmethod
    def _from_numerators(cls, nvars, nums, den):
        """The Poly of nums, integer numerators of valid keys over den > 0, zeros dropped, in lowest terms."""
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
        if not nums:
            return cls._of(nvars, nums)
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: n // g for k, n in nums.items()}
                den //= g
        return cls._of(nvars, nums, den)

    @classmethod
    def _from_coefficients(cls, nvars, items):
        """The Poly of (packed exponent key, Sym or rational coefficient) pairs, keys distinct.

        A Sym coefficient's keys, its monomial ids, move above the exponent fields.
        """
        shift = _FIELD * nvars
        parts = []
        for e, c in items:
            if isinstance(c, Sym):
                nums, den = c._nums, c._den
            else:
                p, den = _ratio(c)
                nums = {0: p} if p else {}
            if nums:
                parts.append((e, nums, den))
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it
        den = math.lcm(1, *(d for _, _, d in parts))
        t = {}
        for e, nums, d in parts:
            k = den // d
            for i, n in nums.items():
                t[e | (i << shift)] = n * k
        return cls._of(nvars, t, den)

    @classmethod
    def from_packed(cls, nvars, packed):
        """A Poly of a dict of packed exponent keys to Sym or rational coefficients; OverflowError on an invalid key."""
        t = {e: c for e, c in packed.items() if c}
        _check_keys(nvars, t)
        return cls._from_coefficients(nvars, t.items())

    @property
    def packed(self):
        """The terms as a new dict of packed exponent keys to Sym coefficients."""
        shift = _FIELD * self.nvars
        exponents = (1 << shift) - 1
        groups = {}
        for k, n in self._nums.items():
            groups.setdefault(k & exponents, {})[k >> shift] = n
        return {e: Sym._from_numerators(0, nums, self._den) for e, nums in groups.items()}

    @property
    def terms(self):
        """The terms as a new dict of exponent tuples to Sym coefficients."""
        nv = self.nvars
        return {unpack_exponents(e, nv): c for e, c in self.packed.items()}

    def _numerators(self, den):
        """The numerators over den, a multiple of the denominator, as a dict; the Poly's own dict when den is it."""
        k = den // self._den
        return self._nums if k == 1 else {e: n * k for e, n in self._nums.items()}

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls._from_coefficients(nvars, [(0, c)])

    @classmethod
    def variable(cls, nvars, a):
        return cls._of(nvars, {1 << _shift(nvars, a): 1})

    def is_zero(self):
        return not self._nums

    def max_exponent(self):
        """The largest exponent of any coordinate in any term (0 for the zero polynomial)."""
        nv = self.nvars
        exponents = (1 << (_FIELD * nv)) - 1
        return max((max(e.to_bytes(nv, "big")) for e in {k & exponents for k in self._nums}), default=0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._nums.items())))

    def __add__(self, other):
        if other.nvars != self.nvars:
            raise ValueError("operands in %d and %d coordinates" % (self.nvars, other.nvars))
        if not other._nums:
            return self
        if not self._nums:
            return other
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        t = {e: n * f1 for e, n in self._nums.items()} if f1 != 1 else dict(self._nums)
        get = t.get
        for e, n in other._nums.items():
            t[e] = get(e, 0) + n * f2
        return type(self)._from_numerators(self.nvars, t, d1 * f1)

    def __neg__(self):
        # negating the numerators keeps the value in lowest terms
        return type(self)._of(self.nvars, {e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        return _sum_of_products(self.nvars, [(self, other)], type(self))

    def scale(self, c):
        """self * c for a Sym or rational c."""
        if isinstance(c, Sym):
            return self * type(self).constant(self.nvars, c)
        p, d = _ratio(c)
        return type(self)._from_numerators(self.nvars, {e: n * p for e, n in self._nums.items()}, self._den * d)

    def diff(self, a):
        shift = _shift(self.nvars, a)
        unit = 1 << shift
        field = (1 << _FIELD) - 1
        t = {}
        for e, n in self._nums.items():
            k = (e >> shift) & field
            if k:
                t[e - unit] = n * k
        return Poly._from_numerators(self.nvars, t, self._den)


class Sym(Poly):
    """Polynomial in free tensor symbols with exact rational coefficients: a
    Poly in no coordinates, keyed by the interned ids of its atom monomials.

    It takes monomials in and gives Fractions out (terms), and it takes ints
    and Fractions as operands of + - * and ==; a symbol-free Sym hashes as
    its rational value.  A Poly in coordinates is no operand of a Sym: both
    orders raise TypeError.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        """From a dict {monomial: rational}; zero coefficients are dropped."""
        p = Poly._from_coefficients(0, [(_monomial_id(mono), q) for mono, q in (terms or {}).items() if q])
        self.nvars, self._nums, self._den = 0, p._nums, p._den

    @classmethod
    def zero(cls):
        return cls._of(0, {})

    @classmethod
    def rational(cls, q):
        return cls.constant(0, q)

    @classmethod
    def symbol(cls, atom, coeff=1):
        return cls({(atom,): coeff})

    @property
    def terms(self):
        """The coefficients as a dict {monomial: Fraction}."""
        return {_MONOMIALS[i]: Fraction(n, self._den) for i, n in self._nums.items()}

    def atoms(self):
        return set().union(*(_MONOMIALS[i] for i in self._nums))

    def __bool__(self):
        return bool(self._nums)

    def _operand(self, other):
        """other as a Sym: TypeError for a Poly in coordinates."""
        if isinstance(other, Sym):
            return other
        if isinstance(other, Poly):
            raise TypeError("a Sym and a Poly in %d coordinates do not combine" % other.nvars)
        return Sym.rational(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Sym.rational(other)
        return Poly.__eq__(self, other)

    def __hash__(self):
        if self._nums.keys() <= {0}:
            return hash(Fraction(self._nums.get(0, 0), self._den))
        return Poly.__hash__(self)

    def __add__(self, other):
        return Poly.__add__(self, self._operand(other))

    __radd__ = __add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        # Poly.__mul__ scales by a rational
        return Poly.__mul__(self, self._operand(other) if isinstance(other, Poly) else other)

    __rmul__ = __mul__

    def __str__(self):
        if not self._nums:
            return "0"
        terms = self.terms
        parts = []
        for mono in sorted(terms, key=lambda m: tuple(_atom_key(a) for a in m)):
            c = terms[mono]
            if mono:
                parts.append("(%s)*%s" % (c, "*".join(atom_str(a) for a in mono)))
            else:
                parts.append("(%s)" % c)
        return " + ".join(parts)

    __repr__ = __str__


def _denominator(polys):
    """The lcm of the denominators of polys: each one's numerators can be read over it."""
    return math.lcm(1, *(p._den for p in polys))


def _sum_of_products(nvars, pairs, cls=Poly):
    """sum of f * g over the (f, g) pairs of Polys in nvars coordinates, as a cls
    gathered in one dict over one denominator; ValueError for a Poly in other coordinates.

    The common denominator is the lcm of the pairs' denominator products.  A
    product of two terms one of which is symbol-free has the sum of their keys;
    a product of two symbolic terms adds the exponent fields and takes the id
    of the product monomial.  A product's exponent fields hold the true
    exponents (below 2 ** _FIELD, no carry into the field above); they are
    checked once at the end.
    """
    kept = []
    for f, g in pairs:
        if f.nvars != nvars or g.nvars != nvars:
            raise ValueError("operands in %d and %d coordinates where %d are expected" % (f.nvars, g.nvars, nvars))
        if f._nums and g._nums:
            kept.append((f, g))
    pairs = kept
    if not pairs:
        return cls._of(nvars, {})
    shift = _FIELD * nvars
    plain = 1 << shift  # the keys of symbol-free terms are the ones below it
    exponents = plain - 1
    den = math.lcm(*{f._den * g._den for f, g in pairs})
    t = {}
    get = t.get
    for f, g in pairs:
        k = den // (f._den * g._den)
        g_terms = g._nums.items()
        for e1, c1 in f._nums.items():
            if k != 1:
                c1 *= k
            symbolic = e1 >= plain
            for e2, c2 in g_terms:
                if symbolic and e2 >= plain:
                    mono = _times(_MONOMIALS[e1 >> shift], _MONOMIALS[e2 >> shift])
                    e = (_monomial_id(mono) << shift) | ((e1 & exponents) + (e2 & exponents))
                else:
                    e = e1 + e2
                t[e] = get(e, 0) + c1 * c2
    _check_sums(nvars, t)
    # CPython allocates a sum one digit longer than its value may need;
    # | 0 copies each kept key at its own size (a 48- instead of a 64-byte
    # block per term at n = 4)
    t = {e | 0: n for e, n in t.items() if n}
    return cls._from_numerators(nvars, t, den)


def _weights(m, r):
    return (1,) * m + (2,) * r


def _key_weight(e, nvars, m):
    """Weight of the monomial of packed exponent key e: its first m coordinates weigh 1, the rest 2."""
    b = e.to_bytes(nvars, "big")
    return sum(b) + sum(b[m:])


def _poly_weights(p, m):
    """{key: weight} over the distinct exponent patterns of p's keys."""
    nv = p.nvars
    exponents = (1 << (_FIELD * nv)) - 1
    return {e: _key_weight(e, nv, m) for e in {k & exponents for k in p._nums}}


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
    comps[a] = Poly.constant(nv, 1)
    return GradedVectorField(m, r, tuple(comps))


def basis_form(m, r, a):
    nv = m + r
    comps = [Poly.zero(nv) for _ in range(nv)]
    comps[a] = Poly.constant(nv, 1)
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
        comps[a] = Poly.constant(nv, 1)
        for i in range(r):
            coeffs = {1 << _shift(nv, b): 2 * spec.J[i][b][a] for b in range(m)}
            comps[m + i] = comps[m + i] + Poly.from_packed(nv, coeffs)
        Xs.append(GradedVectorField(m, r, tuple(comps)))
    Vs = []
    for i in range(r):
        comps = [Poly.zero(nv) for _ in range(nv)]
        comps[m + i] = Poly.constant(nv, 2)
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
    weights = _poly_weights(p, m)
    exponents = (1 << (_FIELD * p.nvars)) - 1
    return Poly._from_numerators(p.nvars, {e: n for e, n in p._nums.items() if weights[e & exponents] == want}, p._den)


def homogeneous_orders(obj):
    """Sorted list of orders on which the object has nonzero components."""
    if not isinstance(obj, _Graded):
        raise TypeError("unsupported object: %r" % type(obj))
    w, sign = obj.weights, obj.direction_sign
    orders = set()
    for a, p in enumerate(obj.comps):
        orders.update(v + sign * w[a] for v in _poly_weights(p, obj.m).values())
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
    forms = list(theta_exp) + list(eta_exp)  # theta^g is form g, eta^i is form m + i
    fields = list(frame_x) + list(frame_v)  # X_b is field b, V_j is field m + j

    def lowest(form_table, order, field):
        form = form_table.get(order)
        return Poly.zero(nv) if form is None else pair(form, field)

    # duality at lowest order
    for g in range(m):
        for b in range(m):
            want = Poly.constant(nv, 1) if g == b else Poly.zero(nv)
            if lowest(theta_exp[g], 1, frame_x[b]) != want:
                raise InvariantError("theta^(1) and the horizontal frame are not dual")
        for j in range(r):
            if not lowest(theta_exp[g], 1, frame_v[j]).is_zero():
                raise InvariantError("theta^(1) must annihilate the vertical frame")
    for i in range(r):
        for j in range(r):
            want = Poly.constant(nv, 1) if i == j else Poly.zero(nv)
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
            s[(g, 0)] = Poly.constant(nv, 1) if (target < m and g == target) else Poly.zero(nv)
        for j in range(r):
            rr[(j, 0)] = Poly.constant(nv, 1) if (target >= m and j == target - m) else Poly.zero(nv)
        for l in range(1, top + 1):
            for i in range(r):
                rr[(i, l)] = entry(m + i, l, s, rr, l)
            for g in range(m):
                s[(g, l)] = entry(g, l, s, rr, l + 1)
        results.append({"s": s, "r": rr})
    return results
