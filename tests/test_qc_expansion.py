"""Symbolic expansion layer: coframe, frame inversion routes, P2, c1 reduction."""

import random
from fractions import Fraction

import pytest

from qcheat.graded import homogeneous_orders, poly_part
from qcheat.group import make_quaternionic_spec
from qcheat.qc_expansion import (
    M_X4DZDZ,
    M_XDX,
    M_XXDXDX_CROSS,
    M_XXDXDX_PP,
    M_XZDXDZ,
    M_ZDZ,
    MOMENT_LABELS,
    UnclassifiedMomentError,
    _coordinate_terms,
    _moment_decomposition,
    build_P2,
    build_coframe,
    divergence_bracket_route,
    divergence_coefficient,
    expansion_coefficients,
    moment_exemplar,
    reduce_c1,
)
from qcheat.tensors import LinearReducer, TensorSymbols, identity_relations

SPEC = make_quaternionic_spec(1)
SYM = TensorSymbols(SPEC)
M = SPEC.m


def test_coframe_vanishing_orders():
    cof = build_coframe(SPEC, SYM)
    assert all(3 not in tab for tab in cof.eta)
    assert all(2 not in tab for tab in cof.theta)
    assert cof.check_orders()
    # flat model: the higher corrections disappear entirely
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    cflat = build_coframe(SPEC, flat)
    assert all(3 not in tab for tab in cflat.theta)
    assert all(4 not in tab for tab in cflat.eta)
    assert not cflat.omega


def test_coframe_terms_are_eigenforms():
    cof = build_coframe(SPEC, SYM)
    for tab in list(cof.theta) + list(cof.eta):
        for l, form in tab.items():
            assert homogeneous_orders(form) == [l]
    for tab in cof.omega.values():
        for l, form in tab.items():
            assert homogeneous_orders(form) == [l]


def test_expansion_routes_agree_n1():
    # closed forms of the frame expansion == coframe-inversion recursion
    coeffs = expansion_coefficients(SPEC, SYM, check_routes=True)
    # and the vertical-vertical coefficient carries no curvature symbols
    for poly in coeffs.r_v.values():
        for c in poly.terms.values():
            assert all(atom[0] != "R" for atom in c.atoms())


def test_expansion_zero_symbols():
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    coeffs = expansion_coefficients(SPEC, flat, check_routes=True)
    for table in (coeffs.s_x, coeffs.r_x, coeffs.s_v, coeffs.r_v):
        assert all(p.is_zero() for p in table.values())


def test_divergence_weight_one_and_flat():
    div = divergence_coefficient(SPEC, SYM)
    for p in div:
        assert poly_part(p, SPEC.m, SPEC.r, 1) == p
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    for p in divergence_coefficient(SPEC, flat):
        assert p.is_zero()


def test_divergence_bracket_cross_check():
    coeffs = expansion_coefficients(SPEC, SYM, check_routes=False)
    direct = divergence_coefficient(SPEC, SYM, coeffs)
    bracket = divergence_bracket_route(SPEC, SYM, coeffs)
    assert all(a == b for a, b in zip(direct, bracket))


def test_p1_is_zero_and_p2_structure():
    op = build_P2(SPEC, SYM)
    assert op.check_order_zero()
    assert all(not (a[0] == "V" and b[0] == "V") for a, b in op.second)
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    assert build_P2(SPEC, flat).is_zero()


def test_moment_decomposition_rules():
    m = 4
    nv = m + 3

    def pat(mono=(), deriv=()):
        mo = [0] * nv
        de = [0] * nv
        for i in mono:
            mo[i] += 1
        for i in deriv:
            de[i] += 1
        return tuple(mo), tuple(de)

    # rule (1): x x dz vanishes by z-parity
    assert _moment_decomposition(*pat((0, 1), (m,)), m) == {}
    # rule (3): plain dz vanishes
    assert _moment_decomposition(*pat((), (m,)), m) == {}
    # rule (2) off-pattern
    assert _moment_decomposition(*pat((0, 1), (2, 3)), m) == {}
    # rule (2) on-patterns
    assert _moment_decomposition(*pat((0, 0), (1, 1)), m) == {M_XXDXDX_PP: 1}
    assert _moment_decomposition(*pat((0, 1), (0, 1)), m) == {M_XXDXDX_CROSS: 1}
    assert _moment_decomposition(*pat((0, 0), (0, 0)), m) == {
        M_XXDXDX_PP: 1,
        M_XXDXDX_CROSS: 2,
    }
    # rule (4): i = j and paired x, multiplicity counts the pairings
    assert _moment_decomposition(*pat((0, 0, 1, 1), (m, m)), m) == {M_X4DZDZ: 1}
    assert _moment_decomposition(*pat((0, 0, 0, 0), (m, m)), m) == {M_X4DZDZ: 3}
    assert _moment_decomposition(*pat((0, 0, 1, 1), (m, m + 1)), m) == {}
    # first-order classes
    assert _moment_decomposition(*pat((0,), (0,)), m) == {M_XDX: 1}
    assert _moment_decomposition(*pat((m,), (m,)), m) == {M_ZDZ: 1}
    assert _moment_decomposition(*pat((0, m), (0, m)), m) == {M_XZDXDZ: 1}
    # outside the classified cases: flagged, never guessed
    with pytest.raises(UnclassifiedMomentError):
        _moment_decomposition(*pat((0,) * 6, (m, m)), m)


def test_moment_exemplars_classify_correctly():
    for label in MOMENT_LABELS:
        mono, deriv = moment_exemplar(label, M)
        decomp = _moment_decomposition(mono, deriv, M)
        assert decomp.get(label, 0) >= 1


def test_reduce_c1_n1_golden():
    red = reduce_c1(SPEC, check_routes=False)
    # exactly linear in kappa
    for mono in red.result.terms:
        kinds = sorted(a[0] for a in mono)
        assert kinds == ["M", "kap"]
    assert red.kappa_coefficients == {
        M_XDX: Fraction(-2, 3),
        M_XXDXDX_PP: Fraction(1, 3),
        M_XXDXDX_CROSS: Fraction(-1, 3),
        M_X4DZDZ: Fraction(4),
    }
    assert set(red.kappa_coefficients) <= set(MOMENT_LABELS)
    assert red.classified_terms > 0 and red.parity_killed_terms > 0
    assert any("[rewrite" in line for line in red.log)
    assert red.final_line().endswith("* kappa")


def test_reduce_c1_torsion_only_is_zero():
    torsion_only = TensorSymbols(SPEC, zero_curvature=True)
    red = reduce_c1(SPEC, torsion_only, check_routes=False)
    assert red.result.is_zero()
    assert red.final_line() == "c1 = 0"


def test_reduce_c1_rewrite_order_independent():
    # the per-moment tensor coefficients reduce to the same normal form under
    # random relation orderings
    coeffs = expansion_coefficients(SPEC, SYM, check_routes=False)
    div = divergence_coefficient(SPEC, SYM, coeffs)
    op = build_P2(SPEC, SYM, coeffs, div)
    coord = _coordinate_terms(SPEC, op)
    from qcheat.tensors import Sym

    acc = Sym.zero()
    for deriv, poly in coord.items():
        for mono, c in poly.terms.items():
            for label, mult in _moment_decomposition(mono, deriv, M).items():
                acc = acc + c * mult * Sym.symbol(("M", label))
    rels = identity_relations(SYM)
    base = LinearReducer(rels)
    split = acc.coefficient_split("M")
    rng = random.Random(5)
    for key, coeff in split.items():
        want = base.reduce(coeff)
        for _ in range(3):
            order = list(range(len(rels)))
            rng.shuffle(order)
            assert LinearReducer(rels, row_order=order).reduce(coeff) == want
