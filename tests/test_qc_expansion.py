"""Symbolic expansion layer: coframe, frame inversion routes, P2, c1 reduction."""

import gc
import hashlib
import random
from fractions import Fraction

import pytest

from qcheat import qc_expansion
from qcheat.graded import Poly, frame_inversion, homogeneous_orders, homogeneous_part, left_invariant_frame, pair
from qcheat.group import GroupSpec, make_quaternionic_spec
from qcheat.qc_expansion import (
    M_X4DZDZ,
    M_XDX,
    M_XXDXDX_CROSS,
    M_XXDXDX_PP,
    M_XZDXDZ,
    M_ZDZ,
    MOMENT_LABELS,
    PerturbationOperator,
    RouteMismatchError,
    UnclassifiedMomentError,
    _coordinate_terms,
    _moment_decomposition,
    build_P2,
    build_coframe,
    divergence_coefficient,
    expansion_coefficients,
    moment_exemplar,
    reduce_c1,
)
from qcheat.tensors import InvariantError, LinearReducer, Sym, TensorSymbols, identity_relations

SPEC = make_quaternionic_spec(1)
SYM = TensorSymbols(SPEC)
M = SPEC.m


def _p2(symbols, spec=SPEC):
    coeffs = expansion_coefficients(spec, symbols)
    return build_P2(spec, coeffs, divergence_coefficient(spec, coeffs))


@pytest.fixture(scope="module")
def reductions():
    """reduce_c1 of the quaternionic spec per level n, each run once for the module."""
    done = {}

    def get(n):
        if n not in done:
            done[n] = reduce_c1(make_quaternionic_spec(n))
        return done[n]

    return get


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


def test_symbolic_expansion_needs_integer_brackets():
    # the coefficients are integer numerators over a fixed denominator
    half = Fraction(1, 2)
    spec = GroupSpec(J=(((0, half), (-half, 0)),))
    for build in (build_coframe, expansion_coefficients):
        with pytest.raises(ValueError, match="integer bracket matrices"):
            build(spec)


def test_coframe_terms_are_eigenforms():
    cof = build_coframe(SPEC, SYM)
    for tab in list(cof.theta) + list(cof.eta):
        for l, form in tab.items():
            assert homogeneous_orders(form) == [l]


def test_expansion_routes_agree_n1():
    # closed forms of the frame expansion == coframe-inversion recursion
    coeffs = expansion_coefficients(SPEC, SYM)
    # and the vertical-vertical coefficient carries no curvature symbols
    for poly in coeffs.r_v.values():
        for c in poly.terms.values():
            assert all(atom[0] != "R" for atom in c.atoms())


def test_frame_inversion_graded_truncation():
    # vertical targets stop one order below horizontal ones, and truncating
    # changes no entry: every table is a prefix of the deeper run's
    cof = build_coframe(SPEC, SYM)
    Xs, Vs = left_invariant_frame(SPEC)
    args = (list(cof.theta), list(cof.eta), Xs, Vs)
    out3 = frame_inversion(*args, max_order=3)
    out4 = frame_inversion(*args, max_order=4)
    r = SPEC.r
    for target, (tab3, tab4) in enumerate(zip(out3, out4)):
        top = 3 if target < M else 2
        assert set(tab3["s"]) == {(g, l) for g in range(M) for l in range(top + 1)}
        assert set(tab3["r"]) == {(j, l) for j in range(r) for l in range(top + 1)}
        assert max(l for _, l in tab4["s"]) == top + 1
        for part in ("s", "r"):
            assert all(tab4[part][key] == poly for key, poly in tab3[part].items())
    # the orders the closed-form cross-check reads are nonzero in the curved case
    assert any(not out3[M]["s"][(b, 1)].is_zero() for b in range(M))
    assert any(not out3[0]["r"][(j, 3)].is_zero() for j in range(r))


def _reference_frame_inversion(theta_exp, eta_exp, frame_x, frame_v, max_order):
    """The duality recursion term by term: every pairing recomputed where it
    is read and every entry grown by acc = acc + f * g."""
    m, r = len(frame_x), len(frame_v)
    nv = frame_x[0].nvars
    one = Sym.rational(1)

    def pairing(form_table, order, field):
        form = form_table.get(order)
        return Poly.zero(nv) if form is None else pair(form, field)

    results = []
    for target in range(m + r):
        top = max_order if target < m else max_order - 1
        s = {(g, 0): Poly.constant(nv, one) if (target < m and g == target) else Poly.zero(nv) for g in range(m)}
        rr = {(j, 0): Poly.constant(nv, one) if (target >= m and j == target - m) else Poly.zero(nv) for j in range(r)}
        for l in range(1, top + 1):
            for i in range(r):
                acc = Poly.zero(nv)
                for mm in range(l):
                    for b in range(m):
                        if not s[(b, mm)].is_zero():
                            acc = acc + s[(b, mm)] * pairing(eta_exp[i], l - mm + 1, frame_x[b])
                    for j in range(r):
                        if not rr[(j, mm)].is_zero():
                            acc = acc + rr[(j, mm)] * pairing(eta_exp[i], l - mm + 2, frame_v[j])
                rr[(i, l)] = -acc
            for g in range(m):
                acc = Poly.zero(nv)
                for mm in range(l):
                    for b in range(m):
                        if not s[(b, mm)].is_zero():
                            acc = acc + s[(b, mm)] * pairing(theta_exp[g], l - mm + 1, frame_x[b])
                for mm in range(l + 1):
                    for j in range(r):
                        if not rr[(j, mm)].is_zero():
                            acc = acc + rr[(j, mm)] * pairing(theta_exp[g], l - mm + 2, frame_v[j])
                s[(g, l)] = -acc
        results.append({"s": s, "r": rr})
    return results


@pytest.mark.parametrize("n", [1, 2])
def test_frame_inversion_matches_term_by_term_reference(n):
    # every entry of both tables, including the orders the route check does not read
    spec = make_quaternionic_spec(n)
    cof = build_coframe(spec, TensorSymbols(spec))
    Xs, Vs = left_invariant_frame(spec)
    args = (list(cof.theta), list(cof.eta), Xs, Vs)
    got = frame_inversion(*args, max_order=3)
    want = _reference_frame_inversion(*args, max_order=3)
    assert len(got) == len(want) == spec.m + spec.r
    for tab, ref in zip(got, want):
        for part in ("s", "r"):
            assert tab[part] == ref[part]


@pytest.mark.parametrize("table", ["s_x", "r_x", "s_v", "r_v"])
def test_route_check_catches_planted_mismatch(monkeypatch, table):
    # every table the recursion yields, vertical targets included, is compared
    real = qc_expansion._closed_form_coefficients

    def planted(spec, symbols):
        coeffs = real(spec, symbols)
        tab = getattr(coeffs, table)
        tab[(0, 0)] = tab[(0, 0)] + Poly.variable(spec.m + spec.r, 0)
        return coeffs

    monkeypatch.setattr(qc_expansion, "_closed_form_coefficients", planted)
    with pytest.raises(RouteMismatchError, match=table):
        expansion_coefficients(SPEC, SYM)


def test_expansion_zero_symbols():
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    coeffs = expansion_coefficients(SPEC, flat)
    for table in (coeffs.s_x, coeffs.r_x, coeffs.s_v, coeffs.r_v):
        assert all(p.is_zero() for p in table.values())


def test_divergence_weight_one_and_flat():
    div = divergence_coefficient(SPEC, expansion_coefficients(SPEC, SYM))
    for p in div:
        assert homogeneous_part(p, 1, SPEC.m, SPEC.r) == p
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    for p in divergence_coefficient(SPEC, expansion_coefficients(SPEC, flat)):
        assert p.is_zero()


def test_p1_is_zero_and_p2_structure():
    op = _p2(SYM)
    assert op.check_order_zero()
    assert all(not (a[0] == "V" and b[0] == "V") for a, b in op.second)
    flat = TensorSymbols(SPEC, zero_torsion=True, zero_curvature=True)
    flat_op = _p2(flat)
    assert not flat_op.second and not flat_op.first


def test_build_p2_checks_order_zero():
    # a weight-0 constant in the divergence gives P2 a first-order X_1 term of the wrong weight
    coeffs = expansion_coefficients(SPEC, SYM)
    div = divergence_coefficient(SPEC, coeffs)
    div[0] = div[0] + Poly.constant(SPEC.dim, Sym.rational(1))
    with pytest.raises(InvariantError, match=r"first-order term \('X', 0\) is not weight-1 homogeneous"):
        build_P2(SPEC, coeffs, div)


def test_parity_survivor_without_a_class_raises(monkeypatch):
    # the parity filter of _coordinate_terms and the classes of _moment_decomposition
    # must agree: a surviving pattern that no class takes is an invariant violation
    monkeypatch.setattr(qc_expansion, "_moment_decomposition", lambda mono, deriv, m: {})
    with pytest.raises(InvariantError, match="passed the parity filter but has no moment class"):
        reduce_c1(SPEC)


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
        assert _moment_decomposition(mono, deriv, M) == {label: 1}


def test_reduce_c1_n1_golden(reductions):
    red = reductions(1)
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
    # parity is applied before the coefficients are multiplied out; the
    # counts stay those of the full expansion
    assert (red.classified_terms, red.parity_killed_terms) == (67, 888)
    assert any("[rewrite" in line for line in red.log)
    assert red.final_line().endswith("* kappa")


def test_reduce_c1_n2_golden_with_route_check(reductions):
    red = reductions(2)
    assert red.final_line() == (
        "c1 = ((-2/3)*M[x.dx] + (1/3)*M[xx.dxdx;pp] + (-1/3)*M[xx.dxdx;cross]"
        " + (5)*M[xxxx.dzdz]) * kappa"
    )
    assert (red.classified_terms, red.parity_killed_terms) == (227, 7434)
    assert red.log[0] == (
        "[moments] 227 terms survive parity, 7434 killed; classes: M[x.dx] x8, "
        "M[xx.dxdx;cross] x28, M[xx.dxdx;pp] x56, M[xxxx.dzdz] x108, M[xz.dx.dz] x24, M[z.dz] x3"
    )


def test_reduce_c1_n3_golden_with_route_check(reductions):
    red = reductions(3)
    assert red.final_line() == (
        "c1 = ((-2/3)*M[x.dx] + (1/3)*M[xx.dxdx;pp] + (-1/3)*M[xx.dxdx;cross]"
        " + (28/5)*M[xxxx.dzdz]) * kappa"
    )
    assert (red.classified_terms, red.parity_killed_terms) == (483, 30204)


def test_reduce_c1_n4_golden_with_route_check(reductions):
    red = reductions(4)
    assert red.final_line() == (
        "c1 = ((-2/3)*M[x.dx] + (1/3)*M[xx.dxdx;pp] + (-1/3)*M[xx.dxdx;cross]"
        " + (6)*M[xxxx.dzdz]) * kappa"
    )
    assert (red.classified_terms, red.parity_killed_terms) == (835, 85902)


@pytest.mark.slow
def test_reduce_c1_n5_golden_with_route_check():
    red = reduce_c1(make_quaternionic_spec(5))
    assert red.final_line() == (
        "c1 = ((-2/3)*M[x.dx] + (1/3)*M[xx.dxdx;pp] + (-1/3)*M[xx.dxdx;cross]"
        " + (44/7)*M[xxxx.dzdz]) * kappa"
    )
    assert (red.classified_terms, red.parity_killed_terms) == (1283, 197376)
    digest = "5a035d2e6083c6d166d7451632031ebf7183ff3980ff1b32edd1d0963c047475"
    assert hashlib.sha256("\n".join(red.log).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduce_c1_quartic_coefficient_in_closed_form(reductions, n):
    # the n-dependence of M[xxxx.dzdz]: 4, 5, 28/5, 6 at n = 1, 2, 3, 4
    assert reductions(n).kappa_coefficients[M_X4DZDZ] == Fraction(4 * (2 * n + 1), n + 2)


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "2aac53c30d1d5e72f85f86aa1342c6940954d1a63b653f5c61684d0399a03bc5"),
        (2, "6795fede1d5090838b61df48c759c82d4df31e60d1afdea4aa040f5346275821"),
        (3, "1366c8df7bae2491f82819e3734803cd6066a8392ed1a66526dde147b6835d7f"),
        (4, "fe75503640377556f6d80532c1356bed728186e6d4f4274c459f906d56c744a8"),
    ],
)
def test_reduce_c1_log_pinned(reductions, n, digest):
    # every line of the derivation log, each elimination and its provenance included
    assert hashlib.sha256("\n".join(reductions(n).log).encode()).hexdigest() == digest


def test_reduce_c1_torsion_only_is_zero():
    torsion_only = TensorSymbols(SPEC, zero_curvature=True)
    red = reduce_c1(SPEC, torsion_only)
    assert red.result.is_zero()
    assert red.final_line() == "c1 = 0"


def _unpruned_coordinate_terms(spec, op, survives):
    """Reference: multiply every coordinate term out, sum per derivative, then
    split the terms into survivors {deriv: {mono: coeff}} and a killed count."""
    Xs, Vs = left_invariant_frame(spec)
    fields = {("X", a): X for a, X in enumerate(Xs)}
    fields.update({("V", i): V for i, V in enumerate(Vs)})
    nv = spec.m + spec.r
    full = {}

    def add(coords, poly):
        deriv = [0] * nv
        for a in coords:
            deriv[a] += 1
        deriv = tuple(deriv)
        full[deriv] = full.get(deriv, Poly.zero(nv)) + poly

    for (la, lb), coeff in op.second.items():
        A, B = fields[la], fields[lb]
        for a in range(nv):
            for b in range(nv):
                add((a, b), coeff * A.comps[a] * B.comps[b])
        for b in range(nv):
            add((b,), coeff * A.apply(B.comps[b]))
    for lbl, coeff in op.first.items():
        for a in range(nv):
            add((a,), coeff * fields[lbl].comps[a])
    survivors, killed = {}, 0
    for deriv, poly in full.items():
        for mono, c in poly.terms.items():
            if survives(mono, deriv):
                survivors.setdefault(deriv, {})[mono] = c
            else:
                killed += 1
    return survivors, killed


def test_coordinate_terms_match_unpruned_expansion():
    # parity-first expansion must keep exactly the survivors of the full
    # expansion and count exactly the killed, at n = 1 and 2
    for n, want_killed in ((1, 888), (2, 7434)):
        spec = make_quaternionic_spec(n)
        op = _p2(TensorSymbols(spec), spec)
        survivors, killed = _unpruned_coordinate_terms(
            spec, op, lambda mono, deriv: bool(_moment_decomposition(mono, deriv, spec.m))
        )
        coord, pruned = _coordinate_terms(spec, op)
        assert {d: p.terms for d, p in coord.items()} == survivors
        assert pruned == killed == want_killed


@pytest.mark.parametrize("cancelling", ["coefficient", "components"])
def test_coordinate_terms_cancelling_products_are_not_counted(cancelling):
    # a pattern that is never formed is not killed.  coefficient: X_3's vertical
    # component 2 (x_1 + x_2) times the coefficient x_1 - x_2 cancels its x_1 x_2
    # terms; components: X_3's and X_4's vertical components 2 (x_1 + x_2) and
    # 2 (x_1 - x_2) multiply to no x_1 x_2 term
    J = (((0, 0, 1, 1), (0, 0, 1, -1), (-1, -1, 0, 0), (-1, 1, 0, 0)),)
    spec = GroupSpec(J=J)
    nv = spec.m + spec.r
    x = [Poly.variable(nv, a) for a in range(nv)]
    if cancelling == "coefficient":
        coeff = x[0] - x[1]
        op = PerturbationOperator(m=4, r=1, second={(("X", 2), ("X", 0)): coeff}, first={("X", 1): coeff})
    else:
        one = Poly.constant(nv, Sym.rational(1))
        op = PerturbationOperator(m=4, r=1, second={(("X", 2), ("X", 3)): one}, first={})

    def parity_survives(mono, deriv):
        return all((a + b) % 2 == 0 for a, b in zip(mono, deriv))

    survivors, killed = _unpruned_coordinate_terms(spec, op, parity_survives)
    coord, pruned = _coordinate_terms(spec, op)
    assert {d: p.terms for d, p in coord.items()} == survivors
    assert pruned == killed > 0


def test_coordinate_terms_bound_their_exponents():
    # a coefficient's exponent plus two frame components' (degree 1 each) must
    # stay within 127, the most a packed field holds: x_1^124 passes (its
    # X_1 X_1 term survives parity as is), x_1^126 could reach 128
    nv = SPEC.m + SPEC.r
    for power, fits in ((124, True), (126, False)):
        coeff = Poly(nv, {(power,) + (0,) * (nv - 1): Sym.rational(1)})
        op = PerturbationOperator(m=SPEC.m, r=SPEC.r, second={(("X", 0), ("X", 0)): coeff}, first={})
        if fits:
            coord, _ = _coordinate_terms(SPEC, op)
            assert coord[(2, 0, 0, 0, 0, 0, 0)] == coeff
        else:
            with pytest.raises(OverflowError, match="exponent above 127"):
                _coordinate_terms(SPEC, op)


def test_reduce_c1_rewrite_order_independent():
    # the per-moment tensor coefficients reduce to the same normal form under
    # random relation orderings
    coeffs = expansion_coefficients(SPEC, SYM)
    div = divergence_coefficient(SPEC, coeffs)
    op = build_P2(SPEC, coeffs, div)
    coord, _ = _coordinate_terms(SPEC, op)

    per_class = {}
    for deriv, poly in coord.items():
        for mono, c in poly.terms.items():
            for label, mult in _moment_decomposition(mono, deriv, M).items():
                per_class[label] = per_class.get(label, Sym.zero()) + c * mult
    rels = identity_relations(SYM)
    base = LinearReducer(rels)
    rng = random.Random(5)
    shuffled_reducers = []
    for _ in range(6):
        shuffled = list(rels)
        rng.shuffle(shuffled)
        red = LinearReducer(shuffled)
        for pivot, (row, _) in red.pivots.items():  # no pivot row holds another pivot's atom
            assert not (row.keys() - {pivot}) & red.pivots.keys()
        shuffled_reducers.append(red)
    for coeff in per_class.values():
        want = base.reduce(coeff)
        for red in shuffled_reducers:
            assert red.reduce(coeff) == want


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("was_enabled", [True, False], ids=["gc-on", "gc-off"])
def test_reduce_c1_pauses_the_collector_and_restores_it(monkeypatch, was_enabled, raises):
    seen = []

    def body(spec, symbols):
        seen.append(gc.isenabled())
        if raises:
            raise RouteMismatchError("stub")
        return "reduction"

    monkeypatch.setattr(qc_expansion, "_reduce_c1", body)
    (gc.enable if was_enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RouteMismatchError):
                reduce_c1(SPEC)
        else:
            assert reduce_c1(SPEC) == "reduction"
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable()
    assert seen == [False]
