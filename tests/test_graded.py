"""Exact identities of the graded polynomial vector-field calculus."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheat.graded import (
    MAX_EXPONENT,
    GradedForm,
    GradedVectorField,
    Poly,
    basis_form,
    basis_vf,
    euler_field,
    frame_inversion,
    homogeneous_orders,
    homogeneous_part,
    left_invariant_frame,
    lie_bracket,
    lie_derivative_form,
    pack_exponents,
    pair,
    unpack_exponents,
    zero_form,
)
from qcheat.group import make_quaternionic_spec
from qcheat.tensors import Sym, _atom_key, _monomial_id

SPEC = make_quaternionic_spec(1)
M, R = SPEC.m, SPEC.r
NV = M + R


def rand_poly(rng, max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = [0] * NV
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(NV)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(NV, terms)


def rand_vf(rng):
    return GradedVectorField(M, R, tuple(rand_poly(rng) for _ in range(NV)))


def rand_form(rng):
    return GradedForm(M, R, tuple(rand_poly(rng) for _ in range(NV)))


def eta2(i):
    """Lowest coframe term (1/2) dz_i - sum I^i_{ab} x_a dx_b."""
    comps = [Poly.zero(NV) for _ in range(NV)]
    for b in range(M):
        terms = {}
        for a in range(M):
            v = SPEC.J[i][a][b]
            if v:
                e = [0] * NV
                e[a] = 1
                terms[tuple(e)] = Fraction(-v)
        comps[b] = Poly(NV, terms)
    comps[M + i] = Poly.constant(NV, Fraction(1, 2))
    return GradedForm(M, R, tuple(comps))


def test_homogeneous_part_trivials():
    dx1 = basis_vf(M, R, 0)
    assert homogeneous_part(dx1, -1) == dx1
    assert homogeneous_part(dx1, 0).is_zero()
    # x1^2 d/dz1 has order 0
    f = Poly(NV, {(2, 0, 0, 0, 0, 0, 0): Fraction(1)})
    X = basis_vf(M, R, M).mul_poly(f)
    assert homogeneous_orders(X) == [0]
    P = euler_field(M, R)
    assert lie_bracket(P, X).is_zero()


def test_lp_eigenvalue_property_random_fields():
    rng = random.Random(3)
    P = euler_field(M, R)
    for _ in range(25):
        F = rand_vf(rng)
        total = zero_vf()
        for l in homogeneous_orders(F):
            part = homogeneous_part(F, l)
            lp = lie_bracket(P, part)
            assert lp == part.scale(Fraction(l)), "L_P eigenvalue failed at order %d" % l
            total = total + part
        assert total == F


def zero_vf():
    from qcheat.graded import zero_vf as zv

    return zv(M, R)


def test_lp_eigenvalue_property_forms():
    rng = random.Random(5)
    P = euler_field(M, R)
    for _ in range(25):
        w = rand_form(rng)
        total = zero_form(M, R)
        for l in homogeneous_orders(w):
            part = homogeneous_part(w, l)
            assert lie_derivative_form(P, part) == part.scale(Fraction(l))
            total = total + part
        assert total == w


def test_left_invariant_frame_brackets():
    Xs, Vs = left_invariant_frame(SPEC)
    for a in range(M):
        for b in range(M):
            got = lie_bracket(Xs[a], Xs[b])
            want = zero_vf()
            for i in range(R):
                want = want + basis_vf(M, R, M + i).scale(Fraction(4 * SPEC.J[i][a][b]))
            assert got == want
            # same thing through the vertical frame: 2 sum I^i_{ab} V_i
            want2 = zero_vf()
            for i in range(R):
                want2 = want2 + Vs[i].scale(Fraction(2 * SPEC.J[i][a][b]))
            assert got == want2
    for i in range(R):
        for a in range(M):
            assert lie_bracket(Vs[i], Xs[a]).is_zero()
        for j in range(R):
            assert lie_bracket(Vs[i], Vs[j]).is_zero()
    # step two: brackets of brackets vanish
    for a in range(M):
        for b in range(M):
            inner = lie_bracket(Xs[a], Xs[b])
            assert lie_bracket(inner, Xs[0]).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(17)
    for _ in range(8):
        X, Y, Z = rand_vf(rng), rand_vf(rng), rand_vf(rng)
        assert lie_bracket(X, Y) == -lie_bracket(Y, X)
        jac = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        assert jac.is_zero()


def test_bracket_order_additivity():
    rng = random.Random(23)
    for _ in range(20):
        X = homogeneous_part(rand_vf(rng), rng.choice([-2, -1, 0, 1]))
        Y = homogeneous_part(rand_vf(rng), rng.choice([-2, -1, 0, 1]))
        if X.is_zero() or Y.is_zero():
            continue
        (kx,) = homogeneous_orders(X)
        (ky,) = homogeneous_orders(Y)
        b = lie_bracket(X, Y)
        if not b.is_zero():
            assert homogeneous_orders(b) == [kx + ky]


def test_pairing_order_additivity():
    rng = random.Random(29)
    for _ in range(20):
        w = homogeneous_part(rand_form(rng), rng.choice([1, 2, 3]))
        X = homogeneous_part(rand_vf(rng), rng.choice([-2, -1, 0]))
        if w.is_zero() or X.is_zero():
            continue
        (kw,) = homogeneous_orders(w)
        (kx,) = homogeneous_orders(X)
        f = pair(w, X)
        for e in f.terms:
            assert sum(e[:M]) + 2 * sum(e[M:]) == kw + kx


def test_duality_pairings():
    Xs, Vs = left_invariant_frame(SPEC)
    for a in range(M):
        for b in range(M):
            got = pair(basis_form(M, R, a), Xs[b])
            want = Poly.constant(NV, Fraction(1)) if a == b else Poly.zero(NV)
            assert got == want
    for i in range(R):
        for a in range(M):
            assert pair(eta2(i), Xs[a]).is_zero()
        for j in range(R):
            got = pair(eta2(i), Vs[j])
            want = Poly.constant(NV, Fraction(1)) if i == j else Poly.zero(NV)
            assert got == want


def test_frame_inversion_trivial_coframe():
    Xs, Vs = left_invariant_frame(SPEC)
    theta_exp = [{1: basis_form(M, R, g)} for g in range(M)]
    # exact duals of the nilpotent frame: all corrections must vanish
    eta_exp = [{2: eta2(i)} for i in range(R)]
    out = frame_inversion(theta_exp, eta_exp, Xs, Vs, max_order=3)
    for target in range(M + R):
        tab = out[target]
        for (g, l), p in tab["s"].items():
            if l == 0:
                want = (
                    Poly.constant(NV, Fraction(1))
                    if (target < M and g == target)
                    else Poly.zero(NV)
                )
                assert p == want
            else:
                assert p.is_zero()
        for (j, l), p in tab["r"].items():
            if l == 0:
                want = (
                    Poly.constant(NV, Fraction(1))
                    if (target >= M and j == target - M)
                    else Poly.zero(NV)
                )
                assert p == want
            else:
                assert p.is_zero()


def test_frame_inversion_rejects_non_dual_input():
    Xs, Vs = left_invariant_frame(SPEC)
    theta_exp = [{1: basis_form(M, R, g).scale(Fraction(2))} for g in range(M)]
    eta_exp = [{2: eta2(i)} for i in range(R)]
    with pytest.raises(ValueError):
        frame_inversion(theta_exp, eta_exp, Xs, Vs, max_order=2)


def test_homogeneous_part_of_polynomial():
    f = Poly(
        NV,
        {
            (1, 0, 0, 0, 0, 0, 0): Fraction(1),  # weight 1
            (0, 0, 0, 0, 1, 0, 0): Fraction(2),  # weight 2
            (2, 0, 0, 0, 0, 0, 0): Fraction(3),  # weight 2
        },
    )
    w1 = homogeneous_part(f, 1, m=M, r=R)
    w2 = homogeneous_part(f, 2, m=M, r=R)
    assert w1 + w2 == f
    assert len(w1.terms) == 1 and len(w2.terms) == 2
    with pytest.raises(TypeError):
        homogeneous_part(f, 1)


def test_packed_keys_round_trip_through_the_tuple_view():
    rng = random.Random(31)
    for _ in range(30):
        p = rand_poly(rng, max_deg=5)
        terms = p.terms
        assert Poly(NV, terms) == p and Poly(NV, terms).terms == terms
        assert Poly.from_packed(NV, p.packed) == p
        # int order of the packed keys is the order of the exponent tuples
        assert [unpack_exponents(e, NV) for e in sorted(p.packed)] == sorted(terms)
    e = (3, 0, 127, 1, 0, 0, 2)
    assert unpack_exponents(pack_exponents(e), NV) == e
    x0 = Poly.variable(NV, 0)
    assert x0.terms == {(1, 0, 0, 0, 0, 0, 0): 1} and (x0 * x0).diff(0) == x0.scale(2)


def test_exponent_field_guard():
    x = Poly.variable(NV, 2)
    p = x
    for _ in range(6):
        p = p * p  # x^64
    top = p * (p.diff(2).scale(Fraction(1, 64)))  # x^127, the largest exponent a field holds
    assert top.terms == {(0, 0, 127, 0, 0, 0, 0): 1} and top.max_exponent() == MAX_EXPONENT
    with pytest.raises(OverflowError):
        p * p  # x^128 would reach the field's guard bit
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        pair(GradedForm(M, R, tuple(top if a == 2 else Poly.zero(NV) for a in range(NV))), euler_field(M, R))
    for bad in ((128, 0, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 300)):
        with pytest.raises(OverflowError):
            Poly(NV, {bad: Fraction(1)})
    with pytest.raises(ValueError):
        Poly(NV, {(1, 0): Fraction(1)})
    for key in (1 << 8 * NV, 0x80, -1):  # past the top field, a guard bit, negative
        with pytest.raises(OverflowError):
            Poly.from_packed(NV, {key: Fraction(1)})


# symbolic Poly arithmetic against a reference that keeps one Sym per
# coefficient, built through the terms view and Sym arithmetic

ATOMS = [("R", 0, 0, 1, 2), ("R", 1, 0, 2, 3), ("T", 4, 0, 1), ("T", 0, 4, 1), ("kap",)]
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
syms = st.dictionaries(
    st.lists(st.sampled_from(ATOMS), max_size=2).map(lambda atoms: tuple(sorted(atoms, key=_atom_key))),
    rationals,
    max_size=3,
).map(Sym)
exponents = st.tuples(*[st.integers(0, 2)] * NV)
sym_terms = st.dictionaries(exponents, syms, max_size=5).map(lambda t: {e: c for e, c in t.items() if c})
rational_terms = st.dictionaries(exponents, rationals.map(Sym.rational), max_size=4).map(
    lambda t: {e: c for e, c in t.items() if c}
)
SYMBOLIC = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def _ref_clean(t):
    return {e: c for e, c in t.items() if c}


def _ref_sum(*terms):
    out = {}
    for t in terms:
        for e, c in t.items():
            out[e] = out.get(e, Sym.zero()) + c
    return _ref_clean(out)


def _ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, Sym.zero()) + c1 * c2
    return _ref_clean(out)


@SYMBOLIC
@given(sym_terms, sym_terms, rational_terms, rationals, syms, st.integers(0, NV - 1), st.integers(0, 8))
def test_symbolic_poly_arithmetic_matches_per_coefficient_reference(a, b, c, q, s, var, w):
    pa, pb, pc = Poly(NV, a), Poly(NV, b), Poly(NV, c)
    assert pa.terms == a and Poly(NV, pa.terms) == pa
    assert (pa + pb).terms == _ref_sum(a, b)
    assert (pa - pb).terms == _ref_sum(a, {e: -v for e, v in b.items()})
    # one symbol-free factor, then two symbolic ones
    assert (pa * pc).terms == (pc * pa).terms == _ref_product(a, c)
    assert (pa * pb).terms == (pb * pa).terms == _ref_product(a, b)
    want = {}
    for e, v in a.items():
        if e[var]:
            want[e[:var] + (e[var] - 1,) + e[var + 1 :]] = v * e[var]
    assert pa.diff(var).terms == want
    assert pa.scale(q).terms == _ref_clean({e: v * q for e, v in a.items()})
    assert pa.scale(s).terms == _ref_clean({e: v * s for e, v in a.items()})
    weight = {e: sum(e[:M]) + 2 * sum(e[M:]) for e in a}
    assert homogeneous_part(pa, w, m=M, r=R).terms == {e: v for e, v in a.items() if weight[e] == w}
    # one representation per value: == and hash hold after cancellation
    back = (pa + pb) - pb
    assert back == pa and hash(back) == hash(pa)
    zero = pa * pb - pb * pa
    assert zero == Poly.zero(NV) and hash(zero) == hash(Poly.zero(NV))
    assert (pa + pb) * pc == pa * pc + pb * pc


def test_exponent_field_guard_with_monomial_ids():
    kappa = Sym.symbol(("kap",))
    x = Poly.variable(NV, 0)
    unit = (1,) + (0,) * (NV - 1)
    top = Poly(NV, {(127,) + (0,) * (NV - 1): kappa})
    with pytest.raises(OverflowError):
        top * x  # one symbolic factor
    with pytest.raises(OverflowError):
        top * Poly(NV, {unit: Sym.symbol(("T", 4, 0, 1))})  # two
    # ids above 255 sit above the exponent fields and set no guard bit
    fresh = [("M", "guard[%d]" % i) for i in range(300)]
    s = Sym({(atom,): Fraction(1, i + 1) for i, atom in enumerate(fresh)})
    p = Poly(NV, {(126,) + (0,) * (NV - 1): s})
    assert _monomial_id((fresh[-1],)) > 255
    got = p * x
    assert got.terms == {(127,) + (0,) * (NV - 1): s} and got.max_exponent() == MAX_EXPONENT
    assert (p * Poly(NV, {unit: kappa})).terms == {(127,) + (0,) * (NV - 1): s * kappa}
    with pytest.raises(OverflowError):
        got * x


def test_operands_in_different_coordinates_raise():
    # exponent fields of 3 and of 2 coordinates do not line up: x_0 in three
    # coordinates is not x_0 in two, so neither a sum nor a product is defined
    a, b = Poly.variable(3, 0), Poly.variable(2, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    with pytest.raises(ValueError):
        pair(GradedForm(2, 1, (a, a, a)), GradedVectorField(2, 1, (b, b, b)))
    # a Sym is a Poly in no coordinates; it combines with a rational, not with a Poly in coordinates
    kappa = Sym.symbol(("kap",))
    assert kappa * 2 - kappa == kappa and 1 - (1 - kappa) == kappa
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, kappa)
        with pytest.raises(TypeError):
            op(kappa, a)
