"""Free torsion/curvature symbols at a point and their contraction identities.

Symbols are the components T^c_{ab} and R^d_{abc} of the canonical connection
in a special frame, treated as free commuting generators over exact rationals,
plus the scalar curvature kappa and abstract convolution-moment symbols.
Indices are global 0-based coordinate indices (horizontal 0..m-1, vertical
m..m+r-1).  Antisymmetry in the two form slots (T^c_{ab} = -T^c_{ba},
R^d_{abc} = -R^d_{bac}) is canonicalized at construction.

The known contraction identities (vertical torsion components, torsion/almost
complex traces, curvature traces against the almost complex structures, and
the definition of kappa) are all linear in the symbols, so rewriting is exact
rational elimination against the relations in reduced echelon form.  No
pivot row holds another pivot's atom, and that form is unique for the span
of the relations, so neither the order of the relations nor the order of
the eliminations can change the normal form; the confluence tests permute
the relations explicitly.

Sym is the type at the edges of the exact layer: the coefficients that
graded.Poly takes and gives back one per monomial, the per-class sums of the
c1 reduction, the LinearReducer rows and the results.  Inside a Poly the
coefficients are integer numerators keyed by interned atom monomials: this
module gives each distinct monomial an int id on first use, and a product
of two monomials follows Sym's own product rule.  No output sorts by an id.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Sym",
    "TensorSymbols",
    "InvariantError",
    "ReductionError",
    "identity_relations",
    "LinearReducer",
    "atom_str",
]

KAPPA = ("kap",)

_KIND_RANK = {"R": 0, "T": 1, "kap": 2, "M": 3}


def _atom_key(atom):
    return (_KIND_RANK[atom[0]], atom)


def _times(m1, m2):
    """The product of two atom monomials: with both nonempty, its atoms in _atom_key order."""
    return tuple(sorted(m1 + m2, key=_atom_key)) if m1 and m2 else m1 + m2


# Atom monomials are interned: each distinct monomial gets an int id, in order
# of first use, with 0 for the empty monomial.  graded.Poly keys its terms by
# these ids, so the tables are one per process and grow with the distinct
# monomials used.  Nothing sorts by an id: printing, Sym.__str__ and the
# reducer's pivots sort atoms by _atom_key, so the order of first use never
# reaches output.
_MONOMIALS = [()]  # id -> monomial
_MONOMIAL_IDS = {(): 0}  # monomial -> id


def _monomial_id(mono):
    """The interned id of an atom monomial, assigned on first use."""
    i = _MONOMIAL_IDS.get(mono)
    if i is None:
        i = _MONOMIAL_IDS[mono] = len(_MONOMIALS)
        _MONOMIALS.append(mono)
    return i


def _sym(nums, den):
    """Sym with nonzero integer numerators over den > 0, put in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {mono: n // g for mono, n in nums.items()}
            den //= g
    return _lowest(nums, den)


def _lowest(nums, den):
    """Sym with nonzero integer numerators over den > 0 already in lowest terms."""
    out = object.__new__(Sym)
    out._nums = nums
    out._den = den
    return out


def _ratio(q):
    """(numerator, denominator) of a rational number."""
    if isinstance(q, int):
        return q, 1
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


class Sym:
    """Polynomial in free tensor symbols with exact rational coefficients.

    The coefficients are held as integer numerators over one positive common
    denominator, in lowest terms, so each value has a single representation
    and the ring arithmetic is integer work.  `terms` gives them as
    Fractions.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        """From a dict {monomial: rational}; zero coefficients are dropped."""
        self._nums, self._den = {}, 1
        if terms:
            ratios = {mono: _ratio(q) for mono, q in terms.items() if q}
            den = math.lcm(1, *(d for _, d in ratios.values()))
            self._nums = {mono: p * (den // d) for mono, (p, d) in ratios.items()}
            self._den = den

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, q):
        p, d = _ratio(q)
        return _sym({(): p} if p else {}, d)

    @classmethod
    def symbol(cls, atom, coeff=1):
        p, d = _ratio(coeff)
        return _sym({(atom,): p} if p else {}, d)

    @classmethod
    def from_numerators(cls, nums, den):
        """The sum of nums[mono] / den * mono, for integer numerators and den > 0."""
        return _sym({mono: n for mono, n in nums.items() if n}, den)

    @property
    def numerators(self):
        """(numerators, den): the Sym's own dict {monomial: integer numerator}, not to be
        changed, and its positive denominator, in lowest terms."""
        return self._nums, self._den

    @property
    def terms(self):
        """The coefficients as a dict {monomial: Fraction}."""
        return {mono: Fraction(n, self._den) for mono, n in self._nums.items()}

    def is_zero(self):
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, Sym):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Sym.rational(other)
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # a symbol-free Sym equals its rational value, so it hashes as one
        nums = self._nums
        if not nums:
            return 0
        if len(nums) == 1 and () in nums:
            return hash(Fraction(nums[()], self._den))
        return hash((frozenset(nums.items()), self._den))

    def __add__(self, other):
        if not isinstance(other, Sym):
            other = Sym.rational(other)
        if not other._nums:
            return self
        if not self._nums:
            return other
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        t = {mono: n * f1 for mono, n in self._nums.items()} if f1 != 1 else dict(self._nums)
        for mono, n in other._nums.items():
            s = t.get(mono, 0) + n * f2
            if s:
                t[mono] = s
            else:
                t.pop(mono, None)
        return _sym(t, d1 * f1)

    __radd__ = __add__

    def __neg__(self):
        # negating the numerators keeps the value in lowest terms
        return _lowest({mono: -n for mono, n in self._nums.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, Sym):
            other = Sym.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p, d):
        """self * p / d for a nonzero integer p and d > 0.

        For d = 1 one gcd does: self is in lowest terms, gcd(den, numerators)
        = 1, so prime by prime gcd(den, p * numerators) = gcd(den, p).
        """
        if d != 1:
            return _sym({mono: n * p for mono, n in self._nums.items()}, self._den * d)
        if p == 1:
            return self
        den = self._den
        g = math.gcd(den, p)
        if g != 1:
            p //= g
            den //= g
        return _lowest({mono: n * p for mono, n in self._nums.items()}, den)

    def __mul__(self, other):
        if not isinstance(other, Sym):
            p, d = _ratio(other)
            return self._scaled(p, d) if p else Sym()
        if not (self._nums and other._nums):
            return Sym()
        # a pure rational factor {(): q} only scales the other one
        if len(other._nums) == 1 and () in other._nums:
            return self._scaled(other._nums[()], other._den)
        if len(self._nums) == 1 and () in self._nums:
            return other._scaled(self._nums[()], self._den)
        t = {}
        for m1, c1 in self._nums.items():
            for m2, c2 in other._nums.items():
                mono = _times(m1, m2)
                s = t.get(mono, 0) + c1 * c2
                if s:
                    t[mono] = s
                else:
                    t.pop(mono, None)
        return _sym(t, self._den * other._den)

    __rmul__ = __mul__

    def atoms(self):
        out = set()
        for mono in self._nums:
            out.update(mono)
        return out

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


class TensorSymbols:
    """Factory for the free symbols of a spec, with optional flat overrides."""

    def __init__(self, spec, zero_torsion=False, zero_curvature=False):
        self.spec = spec
        self.zero_torsion = zero_torsion
        self.zero_curvature = zero_curvature
        self._table = {}

    def _atom(self, kind, *idx):
        """Component kind[idx] as (atom monomial, +1 or -1), None where it is zero.

        kind "T" takes idx = (c, a, b) for T^c_{ab}, kind "R" takes
        idx = (d, a, b, c) for R^d_{abc}.  The atom lists the form slots a, b
        in increasing order and the sign records a swap.  Each index tuple is
        resolved once per instance; T and R build their Sym from it.
        """
        key = (kind,) + idx
        hit = self._table.get(key, False)
        if hit is False:
            head, a, b, *rest = idx
            if a == b or (self.zero_torsion if kind == "T" else self.zero_curvature):
                hit = None
            elif a > b:
                hit = (((kind, head, b, a, *rest),), -1)
            else:
                hit = ((key,), 1)
            self._table[key] = hit
        return hit

    @staticmethod
    def _from_atom(hit):
        if hit is None:
            return Sym()
        mono, sign = hit
        return _lowest({mono: sign}, 1)

    def T(self, c, a, b):
        """Torsion component T^c_{ab}; antisymmetric in (a, b)."""
        return self._from_atom(self._atom("T", c, a, b))

    def R(self, d, a, b, c):
        """Curvature component R^d_{abc}; antisymmetric in (a, b)."""
        return self._from_atom(self._atom("R", d, a, b, c))

    def kappa(self):
        if self.zero_curvature:
            return Sym.zero()
        return Sym.symbol(KAPPA)


def identity_relations(symbols):
    """The contraction identities as (name, Sym) pairs, each identically zero.

    Covers: T^{i-bar}_{ab} = -2 I^i_{ab}; T^{i-bar}_{i-bar j-bar} = 0; the
    torsion trace sum I^i_{ab} T^b_{j-bar a} = 0; the two curvature traces
    I^i I^i R = -2n kappa/(n+2) and +n kappa/(n+2); and kappa as the full
    curvature trace.
    """
    spec = symbols.spec
    m, r = spec.m, spec.r
    n = Fraction(m, 4)
    rels = []
    for i in range(r):
        for a in range(m):
            for b in range(a + 1, m):
                v = spec.J[i][a][b]
                rel = symbols.T(m + i, a, b) + Sym.rational(2 * v)
                if rel:
                    rels.append(("torsion-horizontal[i=%d,a=%d,b=%d]" % (i + 1, a + 1, b + 1), rel))
    for i in range(r):
        for j in range(r):
            if i != j:
                rel = symbols.T(m + i, m + i, m + j)
                if rel:
                    rels.append(("torsion-vertical-trace[i=%d,j=%d]" % (i + 1, j + 1), rel))
    for i in range(r):
        for j in range(r):
            acc = Sym.zero()
            for a in range(m):
                for b in range(m):
                    v = spec.J[i][a][b]
                    if v:
                        acc = acc + v * symbols.T(b, m + j, a)
            if acc:
                rels.append(("torsion-trace[i=%d,j=%d]" % (i + 1, j + 1), acc))
    for i in range(r):
        acc4 = acc5 = Sym.zero()
        for a in range(m):
            for b in range(m):
                v1 = spec.J[i][a][b]
                if not v1:
                    continue
                for g in range(m):
                    for d in range(m):
                        v2 = spec.J[i][g][d]
                        if v2:
                            acc4 = acc4 + (v1 * v2) * symbols.R(d, a, b, g)
                            acc5 = acc5 + (v1 * v2) * symbols.R(d, g, a, b)
        for name, rel in (
            ("curvature-trace-4", acc4 + Fraction(2, 1) * n / (n + 2) * symbols.kappa()),
            ("curvature-trace-5", acc5 - n / (n + 2) * symbols.kappa()),
        ):
            if rel:
                rels.append(("%s[i=%d]" % (name, i + 1), rel))
    acc = Sym.zero()
    for a in range(m):
        for b in range(m):
            acc = acc + symbols.R(a, a, b, b)
    rel = acc - symbols.kappa()
    if rel:
        rels.append(("kappa-definition", rel))
    return rels


class InvariantError(ValueError):
    """A violated invariant of a derivation or of its input (the CLI's exit code 4)."""


class ReductionError(InvariantError):
    """A tensor expression did not collapse to a kappa multiple."""


def _subtract(vec, factor, row):
    """vec -= factor * row in place, dropping entries that cancel."""
    for a, c in row.items():
        s = vec.get(a, 0) - factor * c
        if s:
            vec[a] = s
        else:
            vec.pop(a, None)


class LinearReducer:
    """Exact elimination against linear relations in the tensor symbols.

    Rows are Sym expressions that vanish identically (at most linear in the
    atoms).  The reducer keeps them in reduced echelon form against the fixed
    atom order (curvature first, then torsion, then kappa, then moment
    symbols): each pivot row is normalized on its least atom, and no pivot
    row holds another pivot's atom.  That form is unique for the span of the
    relations, so the normal form of a target does not depend on the order
    the relations come in.
    """

    def __init__(self, relations):
        self.pivots = {}  # atom -> (vector dict atom->Fraction, provenance set)
        for name, rel in relations:
            vec = self._to_vec(rel)
            prov = {name}.union(*(rprov for _, rprov in self._eliminate(vec)))
            if not vec:
                continue
            pivot = min((a for a in vec if a != ()), key=_atom_key, default=())
            inv = 1 / vec[pivot]
            row = {a: c * inv for a, c in vec.items()}
            # back-substitution keeps the pivot atoms out of every other row
            for atom, (other, oprov) in self.pivots.items():
                if pivot in other:
                    _subtract(other, other[pivot], row)
                    self.pivots[atom] = (other, oprov | prov)
            self.pivots[pivot] = (row, prov)

    @staticmethod
    def _to_vec(sym):
        vec = {}
        for mono, c in sym.terms.items():
            if len(mono) > 1:
                raise InvariantError("relations must be linear in the atoms")
            key = mono[0] if mono else ()
            vec[key] = vec.get(key, Fraction(0)) + c
        return {a: c for a, c in vec.items() if c}

    def _eliminate(self, vec):
        """Clear every pivot atom from vec in place, in atom order.

        Returns the (atom, provenance) of each pivot row used.  A pivot row
        holds no other pivot's atom, so subtracting it brings none in and one
        pass reaches the normal form.
        """
        used = []
        for atom in sorted((a for a in vec if a != () and a in self.pivots), key=_atom_key):
            row, prov = self.pivots[atom]
            _subtract(vec, vec[atom], row)
            used.append((atom, prov))
        return used

    def reduce(self, sym, log=None):
        """Normal form of a (linear) Sym modulo the relation set."""
        vec = self._to_vec(sym)
        for atom, prov in self._eliminate(vec):
            if log is not None:
                log.append("eliminated %s via {%s}" % (atom_str(atom), ", ".join(sorted(prov))))
        return Sym({(a,) if a != () else (): c for a, c in vec.items()})
