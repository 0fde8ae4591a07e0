"""Tensor-symbol ring and contraction-identity reduction."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheat.group import make_quaternionic_spec
from qcheat.tensors import LinearReducer, Sym, TensorSymbols, identity_relations

SPEC = make_quaternionic_spec(1)
SYM = TensorSymbols(SPEC)
M = SPEC.m


def iir_sum(symbols, i, order):
    """sum I^i_{ab} I^i_{gd} R^d_{...} with slot pattern 'abg' or 'gab'."""
    spec = symbols.spec
    acc = Sym.zero()
    for a in range(spec.m):
        for b in range(spec.m):
            v1 = spec.J[i][a][b]
            if not v1:
                continue
            for g in range(spec.m):
                for d in range(spec.m):
                    v2 = spec.J[i][g][d]
                    if not v2:
                        continue
                    if order == "abg":
                        acc = acc + (v1 * v2) * symbols.R(d, a, b, g)
                    else:
                        acc = acc + (v1 * v2) * symbols.R(d, g, a, b)
    return acc


def test_antisymmetry_canonicalization():
    assert SYM.T(5, 1, 0) == -SYM.T(5, 0, 1)
    assert SYM.T(5, 2, 2).is_zero()
    assert SYM.R(1, 3, 0, 2) == -SYM.R(1, 0, 3, 2)
    assert SYM.R(1, 2, 2, 0).is_zero()


def test_flat_overrides():
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    assert flat.T(5, 0, 1).is_zero()
    assert flat.R(0, 1, 2, 3).is_zero()
    assert flat.kappa().is_zero()
    torsion_only = TensorSymbols(SPEC, zero_curvature=True)
    assert not torsion_only.T(5, 0, 1).is_zero()
    assert torsion_only.R(0, 1, 2, 3).is_zero()


def test_sym_arithmetic_and_split():
    a = SYM.T(4, 0, 1)
    b = SYM.kappa()
    mlabel = ("M", "M[x.dx]")
    mm = Sym.symbol(mlabel)
    expr = a * mm + Fraction(3, 2) * b * mm - a * mm
    assert expr == Fraction(3, 2) * b * mm
    assert (a - a).is_zero()
    assert a * Sym.zero() == 0


def test_kappa_definition_reduces():
    rels = identity_relations(SYM)
    red = LinearReducer(rels)
    # full curvature trace reduces to kappa, however the dummies are named
    acc = Sym.zero()
    for a in range(M):
        for b in range(M):
            acc = acc + SYM.R(b, b, a, a)
    assert red.reduce(acc) == SYM.kappa()
    assert red.reduce(SYM.kappa()) == SYM.kappa()


@pytest.mark.parametrize("i", [0, 1, 2])
def test_curvature_traces_reduce_to_kappa_multiples(i):
    rels = identity_relations(SYM)
    red = LinearReducer(rels)
    n = Fraction(M, 4)
    got4 = red.reduce(iir_sum(SYM, i, "abg"))
    assert got4 == (-2 * n / (n + 2)) * SYM.kappa()
    got5 = red.reduce(iir_sum(SYM, i, "gab"))
    assert got5 == (n / (n + 2)) * SYM.kappa()


def test_torsion_trace_reduces_to_zero():
    rels = identity_relations(SYM)
    red = LinearReducer(rels)
    for i in range(3):
        for j in range(3):
            acc = Sym.zero()
            for a in range(M):
                for b in range(M):
                    v = SPEC.J[i][a][b]
                    if v:
                        acc = acc + v * SYM.T(b, M + j, a)
            assert red.reduce(acc).is_zero()


def assert_reduced_echelon(red):
    """No pivot row holds another pivot's atom; each is 1 on its own."""
    for pivot, (row, _) in red.pivots.items():
        assert row[pivot] == 1
        assert not (row.keys() - {pivot}) & red.pivots.keys()


def test_reduction_is_order_independent():
    rels = identity_relations(SYM)
    base = LinearReducer(rels)
    target = (
        iir_sum(SYM, 0, "abg")
        + Fraction(2, 3) * iir_sum(SYM, 1, "gab")
        + SYM.T(4, 4, 5)
        + SYM.R(0, 0, 1, 1) * Fraction(5)
        + SYM.T(0, 4, 1)  # not reducible: survives in the normal form
    )
    want = base.reduce(target)
    rng = random.Random(99)
    for _ in range(6):
        shuffled = list(rels)
        rng.shuffle(shuffled)
        red = LinearReducer(shuffled)
        assert_reduced_echelon(red)
        assert red.pivots.keys() == base.pivots.keys()
        assert red.reduce(target) == want


def test_derivation_log_mentions_rules():
    rels = identity_relations(SYM)
    red = LinearReducer(rels)
    log = []
    red.reduce(iir_sum(SYM, 0, "abg"), log=log)
    assert log and any("curvature-trace" in line for line in log)


# Reference ring: the same polynomials as plain {monomial: Fraction} dicts.
ATOMS = [
    ("R", 0, 0, 1, 2),
    ("R", 1, 0, 2, 3),
    ("T", 4, 0, 1),
    ("T", 0, 4, 1),
    ("kap",),
    ("M", "M[x.dx]"),
]


def _ref_monomial(atoms):
    """Atoms in the documented order: curvature, torsion, kappa, moments."""
    return tuple(sorted(atoms, key=lambda atom: (["R", "T", "kap", "M"].index(atom[0]), atom)))


def _ref_clean(t):
    return {mono: c for mono, c in t.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _ref_monomial(m1 + m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return _ref_clean(out)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=36)
monomials = st.lists(st.sampled_from(ATOMS), max_size=2).map(_ref_monomial)
ref_polys = st.dictionaries(monomials, rationals, max_size=5).map(_ref_clean)
SYM_PROPS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@SYM_PROPS
@given(ref_polys, ref_polys, rationals)
def test_sym_arithmetic_matches_fraction_reference(a, b, q):
    sa, sb = Sym(a), Sym(b)
    assert sa.terms == a
    assert (sa + sb).terms == _ref_add(a, b)
    assert (sa - sb).terms == _ref_add(a, {mono: -c for mono, c in b.items()})
    assert (sa * sb).terms == _ref_mul(a, b)
    assert (sa * q).terms == (q * sa).terms == _ref_clean({mono: c * q for mono, c in a.items()})
    assert (sa * Sym.rational(q)).terms == (sa * q).terms
    # one representation per value: equality and hashing follow the value
    assert (sa + sb == Sym(_ref_add(a, b))) and hash(sa + sb) == hash(Sym(_ref_add(a, b)))
    assert (sa == sb) == (a == b)
    assert bool(sa) == bool(a)


@SYM_PROPS
@given(ref_polys, st.integers(min_value=-60, max_value=60), rationals)
def test_sym_scaling_and_negation_stay_in_lowest_terms(a, k, q):
    # equality compares numerators and denominator, so it holds only between
    # lowest-terms representations: the scaled and negated values must be
    # the ones Sym builds from the reference coefficients
    sa = Sym(a)
    assert sa * k == k * sa == Sym({mono: c * k for mono, c in a.items()})
    assert sa * q == Sym({mono: c * q for mono, c in a.items()})
    assert -sa == Sym({mono: -c for mono, c in a.items()})


@pytest.mark.parametrize("value", [3, -7, Fraction(1, 2), Fraction(-5, 6), 0, Fraction(0)])
def test_symbol_free_sym_hashes_as_its_rational_value(value):
    s = Sym.rational(value)
    assert s == value and hash(s) == hash(value)
    assert len({s, value}) == 1
    assert len({Sym(), 0, Fraction(0)}) == 1


def _ref_component(kind, idx, flat):
    """The component as the reference Sym: zero on a flat override or a
    repeated form slot, else the atom with the form slots (idx[1], idx[2])
    in increasing order, negated when they were swapped."""
    head, a, b, *rest = idx
    if flat or a == b:
        return Sym.zero()
    if a > b:
        return Sym.symbol((kind, head, b, a, *rest), -1)
    return Sym.symbol((kind, head, a, b, *rest))


@pytest.mark.parametrize("flat", [None, "zero_torsion", "zero_curvature"])
def test_atom_lookup_matches_reference_for_every_index_tuple(flat):
    symbols = TensorSymbols(SPEC, **({flat: True} if flat else {}))
    nv = SPEC.m + SPEC.r
    for kind, arity, build in (("R", 4, symbols.R), ("T", 3, symbols.T)):
        zero = flat == ("zero_torsion" if kind == "T" else "zero_curvature")
        tuples = list(itertools.product(range(nv), repeat=arity))
        assert len(tuples) == nv**arity  # 2401 R and 343 T tuples at n = 1
        for idx in tuples:
            want = _ref_component(kind, idx, zero)
            hit = symbols._atom(kind, *idx)
            if hit is None:
                assert want.is_zero() and (zero or idx[1] == idx[2])
            else:
                mono, sign = hit
                assert sign in (1, -1) and Sym({mono: sign}) == want
            assert symbols._atom(kind, *idx) is hit  # memoised
            assert build(*idx) == want
