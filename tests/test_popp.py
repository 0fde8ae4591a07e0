"""Popp density and divergence-trace computations."""

from fractions import Fraction

import numpy as np
import pytest

from qcheat.graded import Poly, left_invariant_frame, lie_bracket, pair, zero_vf
from qcheat.group import make_quaternionic_spec
from qcheat.popp import (
    AdaptedFrameData,
    divergence_terms,
    frame_data_from_spec,
    popp_B_matrix,
    popp_density,
)
from qcheat.qc_expansion import build_coframe, divergence_coefficient, expansion_coefficients
from qcheat.tensors import TensorSymbols


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quaternionic_B_is_16n_identity(n):
    spec = make_quaternionic_spec(n)
    data = frame_data_from_spec(spec)
    B = popp_B_matrix(data)
    for i in range(3):
        for j in range(3):
            assert B[i][j] == (16 * n if i == j else 0)
    assert popp_density(data) == pytest.approx((16.0 * n) ** -1.5, rel=1e-14)


def test_density_n1_value():
    spec = make_quaternionic_spec(1)
    assert popp_density(frame_data_from_spec(spec)) == pytest.approx(1.0 / 64.0, rel=1e-14)


def test_heisenberg_toy():
    b1 = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    data = AdaptedFrameData(m=2, k=1, b=(b1,))
    B = popp_B_matrix(data)
    assert B == [[2]]
    assert popp_density(data) == pytest.approx(2.0**-0.5, rel=1e-14)


def test_non_antisymmetric_rejected():
    bad = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        AdaptedFrameData(m=2, k=1, b=(bad,))


def test_singular_B_names_direction():
    zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
    b1 = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    with pytest.raises(ValueError, match="deficient"):
        popp_density(AdaptedFrameData(m=2, k=2, b=(b1, zero)))


def test_exact_density_of_ten_vertical_directions():
    # b^i = E_ab - E_ba over the 10 pairs a < b of m = 5 gives B = 2 Id, so
    # det B = 2^10 and the density is exactly 1/32
    mats = []
    for a in range(5):
        for b in range(a + 1, 5):
            rows = [[0] * 5 for _ in range(5)]
            rows[a][b], rows[b][a] = 1, -1
            mats.append(tuple(map(tuple, rows)))
    data = AdaptedFrameData(m=5, k=10, b=tuple(mats))
    assert popp_B_matrix(data) == [[2 if i == j else 0 for j in range(10)] for i in range(10)]
    assert popp_density(data) == 1 / 32


def test_exact_density_names_first_deficient_leading_minor():
    # b^3 = b^1 + b^2 makes the third leading minor of B vanish; the first two are positive
    b1 = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    b2 = ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
    b3 = ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
    with pytest.raises(ValueError, match="vertical direction 3 is deficient"):
        popp_density(AdaptedFrameData(m=3, k=3, b=(b1, b2, b3)))


def test_orthogonal_vertical_change_invariance():
    spec = make_quaternionic_spec(1)
    b = np.array([[[float(v) for v in row] for row in bi] for bi in frame_data_from_spec(spec).b])
    rng = np.random.default_rng(11)
    base = popp_density(AdaptedFrameData(m=4, k=3, b=tuple(tuple(tuple(r) for r in bi) for bi in b)))
    for _ in range(5):
        O, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        bt = np.einsum("ij,jab->iab", O, b)
        bt = 0.5 * (bt - np.transpose(bt, (0, 2, 1)))  # clean roundoff antisymmetry
        data = AdaptedFrameData(m=4, k=3, b=tuple(tuple(tuple(r) for r in bi) for bi in bt))
        assert popp_density(data) == pytest.approx(base, abs=1e-12)


def test_ill_conditioned_float_frame_matches_exact_determinant():
    # directions scaled by 1, 1e-5 and 1e5 after a rotation: cond(B) is about
    # 1e20, and the float density still matches the exact determinant of the
    # same (dyadic rational) entries to the last bits
    b = np.array([[[float(v) for v in row] for row in bi] for bi in frame_data_from_spec(make_quaternionic_spec(1)).b])
    O, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    bt = np.einsum("ij,jab->iab", np.diag([1.0, 1e-5, 1e5]) @ O, b)
    bt = 0.5 * (bt - np.transpose(bt, (0, 2, 1)))
    floats = tuple(tuple(tuple(float(v) for v in row) for row in bi) for bi in bt)
    B = popp_B_matrix(AdaptedFrameData(m=4, k=3, b=tuple(tuple(tuple(map(Fraction, r)) for r in bi) for bi in floats)))
    det = B[0][0] * (B[1][1] * B[2][2] - B[1][2] * B[2][1])
    det -= B[0][1] * (B[1][0] * B[2][2] - B[1][2] * B[2][0])
    det += B[0][2] * (B[1][0] * B[2][1] - B[1][1] * B[2][0])
    assert popp_density(AdaptedFrameData(m=4, k=3, b=floats)) == pytest.approx(float(det) ** -0.5, rel=1e-15)


def test_group_frame_divergence_vanishes():
    # constant structure functions of the graded left-invariant frame have no
    # a-component along a: all traces vanish
    spec = make_quaternionic_spec(1)
    m, r = spec.m, spec.r
    dim = m + r
    Xs, Vs = left_invariant_frame(spec)
    frame = Xs + Vs
    from qcheat.graded import basis_form

    nv = m + r
    # coframe dual to the left-invariant frame: dx_a and eta2_i
    def eta2(i):
        comps = [Poly.zero(nv) for _ in range(nv)]
        for bcol in range(m):
            terms = {}
            for a in range(m):
                v = spec.J[i][a][bcol]
                if v:
                    e = [0] * nv
                    e[a] = 1
                    terms[tuple(e)] = Fraction(-v)
            comps[bcol] = Poly(nv, terms)
        comps[m + i] = Poly.constant(nv, Fraction(1, 2))
        from qcheat.graded import GradedForm

        return GradedForm(m, r, tuple(comps))

    coframe = [basis_form(m, r, a) for a in range(m)] + [eta2(i) for i in range(r)]
    c = [[[None] * m for _ in range(dim)] for _ in range(dim)]
    # c^a_{b alpha} = theta_a([X_b, X_alpha])
    for a in range(dim):
        for b in range(dim):
            for alpha in range(m):
                c[a][b][alpha] = pair(coframe[a], lie_bracket(frame[b], frame[alpha]))
    data = AdaptedFrameData(
        m=m,
        k=r,
        b=frame_data_from_spec(spec).b,
        c=tuple(tuple(tuple(row) for row in ca) for ca in c),
    )
    for tr in divergence_terms(data):
        assert tr.is_zero()


def test_missing_c_rejected():
    spec = make_quaternionic_spec(1)
    with pytest.raises(ValueError):
        divergence_terms(frame_data_from_spec(spec))


def _frame_field(frame, coeffs):
    """Polynomial-coefficient combination sum_b coeffs[b] frame[b]."""
    total = zero_vf(frame[0].m, frame[0].r)
    for field, coeff in zip(frame, coeffs):
        if not coeff.is_zero():
            total = total + field.mul_poly(coeff)
    return total


@pytest.mark.parametrize("n", [1, 2])
def test_symbolic_normal_frame_matches_expansion_layer(n):
    # epsilon^2 structure-function traces of the qc normal frame == the
    # divergence coefficients from the expansion layer.  divergence_terms
    # reads only the traced entries c^a_{a alpha}; the rest stay zero.
    spec = make_quaternionic_spec(n)
    sym = TensorSymbols(spec)
    m, r = spec.m, spec.r
    dim = m + r
    coeffs = expansion_coefficients(spec, sym)
    cof = build_coframe(spec, sym)
    Xs, Vs = left_invariant_frame(spec)
    frame0 = Xs + Vs
    # order-(+1) term of each horizontal element, order-0 term of each vertical one
    correction = [
        _frame_field(frame0, [coeffs.s_x[(b, g)] for g in range(m)] + [coeffs.r_x[(b, j)] for j in range(r)])
        for b in range(m)
    ] + [
        _frame_field(frame0, [coeffs.s_v[(i, g)] for g in range(m)] + [coeffs.r_v[(i, j)] for j in range(r)])
        for i in range(r)
    ]

    c = [[[Poly.zero(dim)] * m for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        low = cof.theta[a][1] if a < m else cof.eta[a - m][2]
        high = cof.theta[a].get(3) if a < m else cof.eta[a - m].get(4)
        for alpha in range(m):
            br2 = lie_bracket(frame0[a], correction[alpha]) + lie_bracket(correction[a], frame0[alpha])
            val = pair(low, br2)
            if high is not None:
                val = val + pair(high, lie_bracket(frame0[a], frame0[alpha]))
            c[a][a][alpha] = val
    data = AdaptedFrameData(
        m=m,
        k=r,
        b=frame_data_from_spec(spec).b,
        c=tuple(tuple(tuple(row) for row in ca) for ca in c),
    )
    got = divergence_terms(data)
    want = divergence_coefficient(spec, coeffs)
    assert all(a == b for a, b in zip(got, want))
