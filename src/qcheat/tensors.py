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
rational elimination against a deterministically echelonized relation set;
reduction order cannot change the normal form, which the confluence tests
exercise explicitly.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Sym",
    "TensorSymbols",
    "ReductionError",
    "identity_relations",
    "LinearReducer",
    "atom_str",
]

KAPPA = ("kap",)

_KIND_RANK = {"R": 0, "T": 1, "kap": 2, "M": 3}


def _atom_key(atom):
    return (_KIND_RANK[atom[0]], atom)


class Sym:
    """Polynomial in free tensor symbols with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, q):
        q = Fraction(q)
        return cls({(): q}) if q else cls()

    @classmethod
    def symbol(cls, atom, coeff=Fraction(1)):
        coeff = Fraction(coeff)
        return cls({(atom,): coeff}) if coeff else cls()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Sym):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Sym.rational(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Sym.rational(other)
        t = dict(self.terms)
        for mono, c in other.terms.items():
            s = t.get(mono)
            s = c if s is None else s + c
            if s:
                t[mono] = s
            else:
                t.pop(mono, None)
        return Sym(t)

    __radd__ = __add__

    def __neg__(self):
        return Sym({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Sym.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Sym()
            return Sym({m: c * q for m, c in self.terms.items()})
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2, key=_atom_key))
                c = c1 * c2
                s = t.get(mono)
                s = c if s is None else s + c
                if s:
                    t[mono] = s
                else:
                    t.pop(mono, None)
        return Sym(t)

    __rmul__ = __mul__

    def atoms(self):
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def coefficient_split(self, kind):
        """Split into {atom-of-kind-monomial-part: Sym-cofactor}.

        Monomials must be at most linear in atoms of the given kind; the key
        () collects the part free of them.
        """
        out = {}
        for mono, c in self.terms.items():
            hits = tuple(a for a in mono if a[0] == kind)
            if len(hits) > 1:
                raise ValueError("monomial is nonlinear in kind %r" % kind)
            rest = tuple(a for a in mono if a[0] != kind)
            bucket = out.setdefault(hits, Sym())
            out[hits] = bucket + Sym({rest: c})
        return {k: v for k, v in out.items() if not v.is_zero()}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: tuple(_atom_key(a) for a in m)):
            c = self.terms[mono]
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

    def T(self, c, a, b):
        """Torsion component T^c_{ab}; antisymmetric in (a, b)."""
        if self.zero_torsion:
            return Sym.zero()
        if a == b:
            return Sym.zero()
        if a > b:
            return Sym.symbol(("T", c, b, a), Fraction(-1))
        return Sym.symbol(("T", c, a, b))

    def R(self, d, a, b, c):
        """Curvature component R^d_{abc}; antisymmetric in (a, b)."""
        if self.zero_curvature:
            return Sym.zero()
        if a == b:
            return Sym.zero()
        if a > b:
            return Sym.symbol(("R", d, b, a, c), Fraction(-1))
        return Sym.symbol(("R", d, a, b, c))

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
        acc = Sym.zero()
        for a in range(m):
            for b in range(m):
                v1 = spec.J[i][a][b]
                if not v1:
                    continue
                for g in range(m):
                    for d in range(m):
                        v2 = spec.J[i][g][d]
                        if v2:
                            acc = acc + (v1 * v2) * symbols.R(d, a, b, g)
        rel = acc + Fraction(2, 1) * n / (n + 2) * symbols.kappa()
        if rel:
            rels.append(("curvature-trace-4[i=%d]" % (i + 1), rel))
        acc = Sym.zero()
        for a in range(m):
            for b in range(m):
                v1 = spec.J[i][a][b]
                if not v1:
                    continue
                for g in range(m):
                    for d in range(m):
                        v2 = spec.J[i][g][d]
                        if v2:
                            acc = acc + (v1 * v2) * symbols.R(d, g, a, b)
        rel = acc - n / (n + 2) * symbols.kappa()
        if rel:
            rels.append(("curvature-trace-5[i=%d]" % (i + 1), rel))
    acc = Sym.zero()
    for a in range(m):
        for b in range(m):
            acc = acc + symbols.R(a, a, b, b)
    rel = acc - symbols.kappa()
    if rel:
        rels.append(("kappa-definition", rel))
    return rels


class ReductionError(ValueError):
    """A tensor expression did not collapse to a kappa multiple."""


class LinearReducer:
    """Exact elimination against linear relations in the tensor symbols.

    Rows are Sym expressions that vanish identically (at most linear in the
    atoms).  The reducer echelonizes them against the fixed atom order
    (curvature first, then torsion, then kappa, then moment symbols), so
    reduction of any target is canonical whatever order rules are applied in.
    """

    def __init__(self, relations, row_order=None):
        self.pivots = {}  # atom -> (vector dict atom->Fraction, provenance set)
        names = list(range(len(relations)))
        if row_order is not None:
            names = list(row_order)
        for idx in names:
            name, rel = relations[idx]
            vec = self._to_vec(rel)
            vec, prov = self._reduce_vec(vec, {name})
            if not vec:
                continue
            pivot = self._lead(vec)
            inv = 1 / vec[pivot]
            vec = {a: c * inv for a, c in vec.items()}
            self.pivots[pivot] = (vec, prov)
            self._back_substitute(pivot)

    @staticmethod
    def _to_vec(sym):
        vec = {}
        for mono, c in sym.terms.items():
            if len(mono) > 1:
                raise ValueError("relations must be linear in the atoms")
            key = mono[0] if mono else ()
            vec[key] = vec.get(key, Fraction(0)) + c
        return {a: c for a, c in vec.items() if c}

    @staticmethod
    def _lead(vec):
        return min((a for a in vec if a != ()), key=_atom_key, default=())

    def _reduce_vec(self, vec, prov):
        prov = set(prov)
        changed = True
        while changed:
            changed = False
            for atom in sorted((a for a in vec if a != ()), key=_atom_key):
                hit = self.pivots.get(atom)
                if hit is None:
                    continue
                row, rprov = hit
                factor = vec[atom]
                for a, c in row.items():
                    s = vec.get(a, Fraction(0)) - factor * c
                    if s:
                        vec[a] = s
                    else:
                        vec.pop(a, None)
                prov |= rprov
                changed = True
                break
        return vec, prov

    def _back_substitute(self, new_pivot):
        row, prov = self.pivots[new_pivot]
        for atom in list(self.pivots):
            if atom == new_pivot:
                continue
            vec, vprov = self.pivots[atom]
            if new_pivot in vec:
                factor = vec[new_pivot]
                for a, c in row.items():
                    s = vec.get(a, Fraction(0)) - factor * c
                    if s:
                        vec[a] = s
                    else:
                        vec.pop(a, None)
                self.pivots[atom] = (vec, vprov | prov)

    def reduce(self, sym, log=None, rule_order=None):
        """Normal form of a (linear) Sym modulo the relation set."""
        vec = self._to_vec(sym)
        atoms_in_play = lambda: [a for a in vec if a != () and a in self.pivots]
        while True:
            candidates = atoms_in_play()
            if not candidates:
                break
            if rule_order is not None:
                candidates.sort(key=lambda a: rule_order(a))
            else:
                candidates.sort(key=_atom_key)
            atom = candidates[0]
            row, prov = self.pivots[atom]
            factor = vec[atom]
            for a, c in row.items():
                s = vec.get(a, Fraction(0)) - factor * c
                if s:
                    vec[a] = s
                else:
                    vec.pop(a, None)
            if log is not None:
                log.append("eliminated %s via {%s}" % (atom_str(atom), ", ".join(sorted(prov))))
        out = Sym()
        for a, c in vec.items():
            out = out + (Sym.rational(c) if a == () else Sym.symbol(a, c))
        return out
