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

Sym, a polynomial in the symbols alone, is graded.Poly in no coordinates;
it and the atom order (_atom_key) live in graded beside Poly and are
re-exported here.  Sym is the type at the edges of the exact layer: the
coefficients that Poly takes and gives back one per monomial, the per-class
sums of the c1 reduction, the LinearReducer rows and the results.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import InvariantError, Sym, _atom_key, _monomial_id, atom_str

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
            return Sym.zero()
        mono, sign = hit
        return Sym._of(0, {_monomial_id(mono): sign})

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
                rel = symbols.T(m + i, a, b) + 2 * v
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
