"""Exact identities of the graded polynomial vector-field calculus."""

import random
from fractions import Fraction

import pytest

from qcheat.graded import (
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
    pair,
    zero_form,
)
from qcheat.group import make_quaternionic_spec

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
    from qcheat.graded import monomial_weight

    weights = (1,) * M + (2,) * R
    for _ in range(20):
        w = homogeneous_part(rand_form(rng), rng.choice([1, 2, 3]))
        X = homogeneous_part(rand_vf(rng), rng.choice([-2, -1, 0]))
        if w.is_zero() or X.is_zero():
            continue
        (kw,) = homogeneous_orders(w)
        (kx,) = homogeneous_orders(X)
        f = pair(w, X)
        for e in f.terms:
            assert monomial_weight(e, weights) == kw + kx


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

