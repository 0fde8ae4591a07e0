"""Symbolic expansion layer at a point of a quaternionic contact manifold.

Builds, over the free torsion/curvature symbol ring, the homogeneous terms of
the special coframe in normal coordinates, the expansion of the special frame
in the nilpotent (left-invariant) frame, the first-order divergence
correction of the intrinsic sublaplacian, the order-zero perturbation
operator P2, and the structural reduction of the second heat invariant

    c1 = Integral_0^1 Integral p(1-s, 0, xi) P2 p(s, xi, 0) d xi ds

to a scalar multiple of the qc scalar curvature kappa.  The reduction is the
combinatorial argument: O(4n) x O(3) invariance of the flat kernel kills all
convolution moments with an odd coordinate parity and classifies the
survivors into six abstract moment symbols; the surviving tensor
contractions then collapse to kappa multiples under the known identities.
A surviving non-kappa symbol is a hard failure.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .graded import (
    MAX_EXPONENT,
    GradedForm,
    Poly,
    _denominator,
    _monomial_offset,
    _poly_weights,
    _sum_of_products,
    basis_form,
    frame_inversion,
    homogeneous_orders,
    key_masks,
    left_invariant_frame,
    pack_exponents,
)
from .tensors import (
    InvariantError,
    LinearReducer,
    ReductionError,
    Sym,
    TensorSymbols,
    atom_str,
    identity_relations,
)

__all__ = [
    "CoframeExpansion",
    "ExpansionCoefficients",
    "PerturbationOperator",
    "C1Reduction",
    "UnclassifiedMomentError",
    "RouteMismatchError",
    "build_coframe",
    "expansion_coefficients",
    "divergence_coefficient",
    "build_P2",
    "reduce_c1",
    "MOMENT_LABELS",
    "moment_exemplar",
]

M_XDX = "M[x.dx]"
M_ZDZ = "M[z.dz]"
M_XZDXDZ = "M[xz.dx.dz]"
M_XXDXDX_PP = "M[xx.dxdx;pp]"
M_XXDXDX_CROSS = "M[xx.dxdx;cross]"
M_X4DZDZ = "M[xxxx.dzdz]"

MOMENT_LABELS = (M_XDX, M_ZDZ, M_XZDXDZ, M_XXDXDX_PP, M_XXDXDX_CROSS, M_X4DZDZ)


class UnclassifiedMomentError(InvariantError):
    """A convolution-moment pattern outside the proof's classified cases."""


class RouteMismatchError(InvariantError):
    """Closed-form coefficients disagree with the coframe-inversion route."""


# label -> (coordinate kind per index, 1-based indices, number of monomial indices)
_EXEMPLARS = {
    M_XDX: ("xx", (1, 1), 1),
    M_ZDZ: ("zz", (1, 1), 1),
    M_XZDXDZ: ("xzxz", (1, 1, 1, 1), 2),
    M_XXDXDX_PP: ("xxxx", (1, 1, 2, 2), 2),
    M_XXDXDX_CROSS: ("xxxx", (1, 2, 1, 2), 2),
    M_X4DZDZ: ("xxxxzz", (1, 1, 2, 2, 1, 1), 4),
}


def _pattern(m, kinds, indices, n_mono):
    """(monomial exponents, derivative multi-index) of length m + 3: x_idx is
    coordinate idx - 1, z_idx is m + idx - 1; the first n_mono indices count
    in the monomial, the rest in the derivative."""
    mono = [0] * (m + 3)
    deriv = [0] * (m + 3)
    for pos, (kind, idx) in enumerate(zip(kinds, indices)):
        (mono if pos < n_mono else deriv)[idx - 1 if kind == "x" else m + idx - 1] += 1
    return tuple(mono), tuple(deriv)


def moment_exemplar(label, m):
    """A concrete (monomial exponents, derivative multi-index) in the class.

    Both tuples have length m + 3.  Useful for numeric estimation of the
    moment value by simulation.
    """
    if label not in _EXEMPLARS:
        raise ValueError("unknown moment label %r" % label)
    return _pattern(m, *_EXEMPLARS[label])


def _exponent(nv, *coords):
    """Exponent tuple of the product of x_c over coords, repeats counted."""
    e = [0] * nv
    for c in coords:
        e[c] += 1
    return tuple(e)


def _key(nv, *coords):
    """Packed Poly key of the product of x_c over coords."""
    return pack_exponents(_exponent(nv, *coords))


def _bracket_entries(spec):
    """Per vertical index i, the nonzero entries (a, b, I^i_ab) of spec.J as ints."""
    out = []
    for Ji in spec.J:
        entries = [(a, b, v) for a, row in enumerate(Ji) for b, v in enumerate(row) if v]
        if any(v != int(v) for _, _, v in entries):
            raise ValueError("the symbolic expansion needs integer bracket matrices")
        out.append([(a, b, int(v)) for a, b, v in entries])
    return out


def _term_adder(nv):
    """add(nums, e, hit, num): nums[key] += num times the term atom * x^e of a Poly
    numerator dict, for a packed exponent key e and a TensorSymbols._atom
    result hit = (atom monomial, sign) (None adds nothing)."""
    offsets = {}

    def add(nums, e, hit, num):
        if hit is not None:
            mono, sign = hit
            offset = offsets.get(mono)
            if offset is None:
                offset = offsets[mono] = _monomial_offset(nv, mono)
            # disjoint bits: | sizes the int to its value, where + allocates
            # one more digit (a 64- instead of a 48-byte block at n = 4)
            key = e | offset
            nums[key] = nums.get(key, 0) + sign * num

    return add


@dataclass(frozen=True)
class CoframeExpansion:
    """Homogeneous terms of the special coframe and connection forms."""

    m: int
    theta: tuple  # per alpha: dict order -> GradedForm (orders 1, 3)
    eta: tuple  # per i: dict order -> GradedForm (orders 2, 4)

    def check_orders(self):
        for tab in self.theta + self.eta:
            for l, form in tab.items():
                orders = homogeneous_orders(form)
                if orders not in ([], [l]):
                    raise InvariantError("coframe term labeled %d has orders %s" % (l, orders))
        return True


def build_coframe(spec, symbols=None):
    """Homogeneous coframe terms in normal coordinates (orders up to 4).

    theta^(1) = dx, theta^(2) = 0, eta^(2) = dz/2 - I x dx, eta^(3) = 0,
    omega^(2)_{ab} = (1/2) R^b_{gda} x_g dx_d, and theta^(3), eta^(4) carry
    the torsion/curvature corrections:

        theta^(3)_a = (1/3) [omega^(2)_{ba} x_b - T^a_{ig} x_g eta^(2)_i + T^a_{ib} z_i dx_b]
        eta^(4)_i = (1/4) [omega^(2)_{ji} z_j + T^i_{jk} z_j eta^(2)_k - 2 I^i_{ab} x_a theta^(3)_b]

    summed over repeated indices (i, j, k vertical).  omega^(2) is not built:
    its terms are written out through R where theta^(3) and eta^(4) use them.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    m, r = spec.m, spec.r
    nv = m + r
    R, T = partial(symbols._atom, "R"), partial(symbols._atom, "T")
    add = _term_adder(nv)
    x1 = [_key(nv, a) for a in range(nv)]
    x2 = [[_key(nv, a, b) for b in range(nv)] for a in range(nv)]
    J = _bracket_entries(spec)

    def form(comps, den):
        return GradedForm(m, r, tuple(Poly._from_numerators(nv, c, den) for c in comps))

    theta = []
    for a in range(m):
        theta.append({1: basis_form(m, r, a)})
    eta = []
    for i in range(r):
        terms = [{} for _ in range(nv)]
        for a, b, v in J[i]:
            terms[b][x1[a]] = -v
        terms[m + i][0] = Fraction(1, 2)
        eta.append({2: GradedForm(m, r, tuple(Poly.from_packed(nv, t) for t in terms))})

    # theta^(3) as Poly numerator dicts over 24 (its terms carry 1/6 and
    # 1/3), eta^(4) over 48 (1/8, 1/4, and -1/2 times theta^(3)'s)
    theta3 = []
    for a in range(m):
        comps = [{} for _ in range(nv)]
        for b in range(m):
            for d in range(m):
                for g in range(m):
                    add(comps[d], x2[g][b], R(a, g, d, b), 4)
        for i in range(r):
            for g in range(m):
                t = T(a, m + i, g)
                add(comps[m + i], x1[g], t, -4)
                for ap, d, v in J[i]:
                    add(comps[d], x2[g][ap], t, 8 * v)
            for b in range(m):
                add(comps[b], x1[m + i], T(a, m + i, b), 8)
        theta3.append(comps)
        th = form(comps, 24)
        if not th.is_zero():
            theta[a][3] = th

    for i in range(r):
        comps = [{} for _ in range(nv)]
        for j in range(r):
            for d in range(m):
                for g in range(m):
                    add(comps[d], x2[g][m + j], R(m + i, g, d, m + j), 6)
            for k in range(r):
                t = T(m + i, m + j, m + k)
                add(comps[m + k], x1[m + j], t, 6)
                for ap, d, v in J[k]:
                    add(comps[d], x2[ap][m + j], t, -12 * v)
        for a, b, v in J[i]:
            # x_a times theta^(3)_b's terms: a symbol-free key added to each
            for d, th in enumerate(theta3[b]):
                acc = comps[d]
                for e, num in th.items():
                    key = (e + x1[a]) | 0  # at its own size, as in _term_adder
                    acc[key] = acc.get(key, 0) - v * num
        e4 = form(comps, 48)
        if not e4.is_zero():
            eta[i][4] = e4

    cof = CoframeExpansion(m=m, theta=tuple(theta), eta=tuple(eta))
    cof.check_orders()
    return cof


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Low-order frame expansion in the nilpotent frame.

    s_x[(alpha, beta)]: order-2 coefficient of Xtilde_beta in X_alpha;
    r_x[(alpha, j)]: order-3 coefficient of Vtilde_j in X_alpha;
    s_v[(i, beta)]: order-1 coefficient of Xtilde_beta in V_i;
    r_v[(i, j)]: order-2 coefficient of Vtilde_j in V_i.
    """

    m: int
    s_x: dict
    r_x: dict
    s_v: dict
    r_v: dict


def _closed_form_coefficients(spec, symbols):
    m, r = spec.m, spec.r
    nv = m + r
    J = _bracket_entries(spec)
    R, T = partial(symbols._atom, "R"), partial(symbols._atom, "T")
    add = _term_adder(nv)
    x1 = [_key(nv, a) for a in range(nv)]
    x2 = [[_key(nv, a, b) for b in range(nv)] for a in range(nv)]
    x3 = [[[_key(nv, a, b, c) for c in range(m)] for b in range(m)] for a in range(m)]

    # each coefficient is a sum of -1/6, -1/3, -1/8, v/12, v/6, 1/3, -1/4 and
    # -v/6 times a symbol (v an integer entry of I), so an integer over 24
    def poly(nums):
        return Poly._from_numerators(nv, nums, 24)

    s_x, r_x, s_v, r_v = {}, {}, {}, {}
    for alpha in range(m):
        for beta in range(m):
            acc = {}
            for g in range(m):
                for d in range(m):
                    add(acc, x2[g][d], R(beta, g, alpha, d), -4)
            for i in range(r):
                add(acc, x1[m + i], T(beta, m + i, alpha), -8)
            s_x[(alpha, beta)] = poly(acc)
    for alpha in range(m):
        for j in range(r):
            acc = {}
            for g in range(m):
                for i in range(r):
                    add(acc, x2[g][m + i], R(m + j, g, alpha, m + i), -3)
            for gp, dp, v in J[j]:
                for g in range(m):
                    for d in range(m):
                        add(acc, x3[gp][g][d], R(dp, d, alpha, g), 2 * v)
                for k in range(r):
                    add(acc, x2[gp][m + k], T(dp, m + k, alpha), 4 * v)
            r_x[(alpha, j)] = poly(acc)
    for i in range(r):
        for beta in range(m):
            acc = {}
            for g in range(m):
                add(acc, x1[g], T(beta, m + i, g), 8)
            s_v[(i, beta)] = poly(acc)
    for i in range(r):
        for j in range(r):
            acc = {}
            for k in range(r):
                add(acc, x1[m + k], T(m + j, m + k, m + i), -6)
            for g, d, v in J[j]:
                for dp in range(m):
                    add(acc, x2[g][dp], T(d, m + i, dp), -4 * v)
            r_v[(i, j)] = poly(acc)
    return ExpansionCoefficients(m=m, s_x=s_x, r_x=r_x, s_v=s_v, r_v=r_v)


def _recursion_coefficients(spec, symbols):
    coframe = build_coframe(spec, symbols)
    Xs, Vs = left_invariant_frame(spec)
    out = frame_inversion(list(coframe.theta), list(coframe.eta), Xs, Vs, max_order=3)
    m, r = spec.m, spec.r
    s_x, r_x, s_v, r_v = {}, {}, {}, {}
    for alpha in range(m):
        tab = out[alpha]
        for beta in range(m):
            s_x[(alpha, beta)] = tab["s"][(beta, 2)]
        for j in range(r):
            r_x[(alpha, j)] = tab["r"][(j, 3)]
    for i in range(r):
        tab = out[m + i]
        for beta in range(m):
            s_v[(i, beta)] = tab["s"][(beta, 1)]
        for j in range(r):
            r_v[(i, j)] = tab["r"][(j, 2)]
    return ExpansionCoefficients(m=m, s_x=s_x, r_x=r_x, s_v=s_v, r_v=r_v), out


def expansion_coefficients(spec, symbols=None):
    """Frame-expansion coefficient table, cross-checked against a second route.

    The closed forms are compared term by term against the coframe-inversion
    recursion; a mismatch raises RouteMismatchError.
    """
    if symbols is None:
        symbols = TensorSymbols(spec)
    closed = _closed_form_coefficients(spec, symbols)
    rec, raw = _recursion_coefficients(spec, symbols)
    for name in ("s_x", "r_x", "s_v", "r_v"):
        a = getattr(closed, name)
        b = getattr(rec, name)
        for key in a:
            if a[key] != b[key]:
                raise RouteMismatchError(
                    "coefficient %s%s differs between the closed form and the recursion"
                    % (name, key)
                )
    # vanishing orders reported in the source derivation
    m, r = spec.m, spec.r
    for alpha in range(m):
        tab = raw[alpha]
        for beta in range(m):
            if not tab["s"][(beta, 1)].is_zero():
                raise RouteMismatchError("s^(1) should vanish for horizontal targets")
        for j in range(r):
            for l in (1, 2):
                if not tab["r"][(j, l)].is_zero():
                    raise RouteMismatchError("r^(%d) should vanish for horizontal targets" % l)
    return closed


def divergence_coefficient(spec, coeffs):
    """Leading divergence correction of the dilated co-frame, per horizontal index.

    From the expansion_coefficients table coeffs, returns the list over alpha of

        sum_b X_b(s_a^{b(2)}) - X_a(sum_b s_b^{b(2)})
        + sum_i V_i(r_a^{i(3)}) - X_a(sum_i r_i^{i(2)})

    in the nilpotent frame; each entry is homogeneous of weight one.
    """
    m, r = spec.m, spec.r
    nv = m + r
    Xs, Vs = left_invariant_frame(spec)
    # X_a is linear, so the two traces enter as one, negated
    one = Poly.constant(nv, Sym.rational(1))
    diag = [coeffs.s_x[(beta, beta)] for beta in range(m)] + [coeffs.r_v[(i, i)] for i in range(r)]
    neg_trace = -_sum_of_products(nv, [(one, p) for p in diag])
    out = []
    for alpha in range(m):
        pairs = [pq for beta in range(m) for pq in Xs[beta]._apply_pairs(coeffs.s_x[(alpha, beta)])]
        pairs += Xs[alpha]._apply_pairs(neg_trace)
        pairs += [pq for i in range(r) for pq in Vs[i]._apply_pairs(coeffs.r_x[(alpha, i)])]
        out.append(_sum_of_products(nv, pairs))
    return out


@dataclass(frozen=True)
class PerturbationOperator:
    """Differential operator in the nilpotent frame.

    second maps ordered pairs of frame labels (("X", a) or ("V", i)) to
    polynomial coefficients; first maps single labels.  P2 is homogeneous of
    order zero: every coefficient weight cancels the derivative weights.
    """

    m: int
    r: int
    second: dict
    first: dict

    def check_order_zero(self):
        def label_weight(lbl):
            return 1 if lbl[0] == "X" else 2

        for (la, lb), poly in self.second.items():
            want = label_weight(la) + label_weight(lb)
            if not set(_poly_weights(poly, self.m).values()) <= {want}:
                raise InvariantError("second-order term %s is not weight-%d homogeneous" % ((la, lb), want))
        for lbl, poly in self.first.items():
            want = label_weight(lbl)
            if not set(_poly_weights(poly, self.m).values()) <= {want}:
                raise InvariantError("first-order term %s is not weight-%d homogeneous" % (lbl, want))
        return True


def build_P2(spec, coeffs, div):
    """Order-zero perturbation P2 = X_a X_a^(1) + X_a^(1) X_a + (div) X_a.

    coeffs and div are the expansion_coefficients and divergence_coefficient
    results.  Expanded into the canonical nilpotent-frame form: coefficients
    on ordered X X pairs, a merged X V term (the frames commute), and
    first-order X / V terms.  No V V term can appear: X^(1) carries at most
    one vertical factor.
    """
    m, r = spec.m, spec.r
    nv = m + r
    Xs, _ = left_invariant_frame(spec)
    # s_x[a, b] enters both X X orders; each X_beta / V_j coefficient is one
    # sum over alpha of the derivation products of X_alpha
    second = {}
    for alpha in range(m):
        for beta in range(m):
            second[(("X", alpha), ("X", beta))] = coeffs.s_x[(alpha, beta)] + coeffs.s_x[(beta, alpha)]
        for j in range(r):
            second[(("X", alpha), ("V", j))] = coeffs.r_x[(alpha, j)].scale(2)

    def derived(table, key):
        pairs = [pq for alpha in range(m) for pq in Xs[alpha]._apply_pairs(table[(alpha, key)])]
        return _sum_of_products(nv, pairs)

    first = {("X", beta): derived(coeffs.s_x, beta) + div[beta] for beta in range(m)}
    first.update({("V", j): derived(coeffs.r_x, j) for j in range(r)})
    second = {k: v for k, v in second.items() if not v.is_zero()}
    first = {k: v for k, v in first.items() if not v.is_zero()}
    op = PerturbationOperator(m=m, r=r, second=second, first=first)
    op.check_order_zero()
    return op


def _coordinate_terms(spec, op):
    """Expand a frame-form operator into parity-surviving coordinate terms.

    Returns ({derivative multi-index tuple: coefficient Poly}, killed), with
    duplicates combined and derivative indices global coordinates.  A
    monomial whose per-coordinate parity differs from its derivative's is a
    moment the flat kernel's invariance kills (the first test of
    _moment_decomposition).  Parity adds under multiplication, so each
    coefficient term is paired with each term of a frame-component product
    and only the pairs of the derivative's parity are multiplied out.
    killed counts the distinct (derivative, monomial) patterns that some
    coefficient * component product forms without cancelling; cancellation
    between different products on one pattern is not seen.
    """
    m, r = spec.m, spec.r
    nv = m + r
    Xs, Vs = left_invariant_frame(spec)
    fields = {("X", a): X for a, X in enumerate(Xs)}
    fields.update({("V", i): V for i, V in enumerate(Vs)})

    # The frame components are symbol-free, so a product's key is the sum of
    # its factors' keys, and its parity pattern key & low.  The sums below are
    # not checked term by term, so the exponents are bounded first: none
    # exceeds a coefficient's plus two frame components'.
    def top(polys):
        return max((p.max_exponent() for p in polys), default=0)

    coeff_top = max(top(op.second.values()), top(op.first.values()))
    if coeff_top + 2 * top(p for F in fields.values() for p in F.comps) > MAX_EXPONENT:
        raise OverflowError("P2's coordinate terms would hold an exponent above %d" % MAX_EXPONENT)
    exponents, low = key_masks(nv)
    # the coefficients' numerators over one denominator; with integer bracket
    # matrices the frame components, and so their products, are integer
    _bracket_entries(spec)
    den = _denominator([*op.second.values(), *op.first.values()])

    def by_parity(coeff):
        """coeff's (key, numerator) items grouped by exponent pattern and by parity pattern."""
        by_exponents, groups = {}, {}
        for e, c in coeff._numerators(den).items():
            by_exponents.setdefault(e & exponents, []).append((e, c))
        for p, terms in by_exponents.items():
            groups.setdefault(p & low, []).extend(terms)
        return by_exponents, groups

    comps = {
        lbl: [(c, list(p._numerators(1).items())) for c, p in enumerate(F.comps) if not p.is_zero()]
        for lbl, F in fields.items()
    }
    acc = {}
    formed = {}  # derivative -> exponent patterns some product forms without cancelling

    def add(coords, left, right):
        """Accumulate the coefficient left (a by_parity result) times right, a
        list of integer (key, numerator) terms with like terms apart,
        under the derivative d/dx_coords.  A product survives when its parity
        pattern is the derivative's, so only the left terms of one pattern are
        multiplied by each right term; the exponent patterns of all products
        are kept."""
        deriv = _exponent(nv, *coords)
        want = pack_exponents(deriv) & low
        terms = acc.setdefault(deriv, {})
        keys = formed.setdefault(deriv, set())
        left_exponents, groups = left
        for e2, c2 in right:
            for e1, c1 in groups.get((e2 & low) ^ want, ()):
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        # one product of nonzero factors cannot vanish, so with one right
        # term every pattern counts; several products on one pattern may cancel
        if len(right) == 1:
            keys.update(map(right[0][0].__add__, left_exponents))
            return
        count = Counter()
        for e2, _ in right:
            count.update(map(e2.__add__, left_exponents))
        for p, k in count.items():
            if k == 1:
                keys.add(p)
                continue
            # the products on p: the right terms whose complement p - e2 is a left pattern
            sums = Counter()
            for e2, c2 in right:
                for e1, c1 in left_exponents.get(p - e2, ()):
                    sums[e1 + e2] += c1 * c2
            if any(sums.values()):
                keys.add(p)

    for (la, lb), coeff in op.second.items():
        A, B = fields[la], fields[lb]
        left = by_parity(coeff)
        for a, comp_a in comps[la]:
            for b, comp_b in comps[lb]:
                # A^a B^b with like terms left apart: add sums the products per pattern
                add((a, b), left, [(e1 + e2, c1 * c2) for e1, c1 in comp_a for e2, c2 in comp_b])
        # A acting on B's coefficients: first-order remainder
        for b in range(nv):
            inner = A.apply(B.comps[b])
            if not inner.is_zero():
                add((b,), left, list(inner._numerators(1).items()))
    for lbl, coeff in op.first.items():
        left = by_parity(coeff)
        for a, comp in comps[lbl]:
            add((a,), left, comp)

    coord = {}
    for deriv, terms in acc.items():
        poly = Poly._from_numerators(nv, terms, den)
        if not poly.is_zero():
            coord[deriv] = poly
    killed = 0
    for deriv, keys in formed.items():
        want = pack_exponents(deriv) & low
        killed += sum(1 for e in keys if e & low != want)
    return coord, killed


def _moment_decomposition(mono, deriv, m):
    """Classify one monomial-derivative pattern of the convolution moment.

    Returns {} when parity kills it, a dict {label: integer multiplicity}
    when it survives, and raises UnclassifiedMomentError outside the cases
    established for the flat kernel.
    """
    if any((a + b) & 1 for a, b in zip(mono, deriv)):
        return {}
    mu = mono[:m]
    nu = mono[m:]
    kx = deriv[:m]
    kz = deriv[m:]
    sig = (sum(mu), sum(nu), sum(kx), sum(kz))

    def expand(exps):
        out = []
        for idx, k in enumerate(exps):
            out.extend([idx] * k)
        return out

    if sig == (1, 0, 1, 0):
        return {M_XDX: 1}
    if sig == (0, 1, 0, 1):
        return {M_ZDZ: 1}
    if sig == (1, 1, 1, 1):
        return {M_XZDXDZ: 1}
    if sig == (2, 0, 2, 0):
        a1, a2 = expand(mu)
        c1, c2 = expand(kx)
        pp = 1 if (a1 == a2 and c1 == c2) else 0
        cross = (1 if (a1 == c1 and a2 == c2) else 0) + (1 if (a1 == c2 and a2 == c1) else 0)
        out = {}
        if pp:
            out[M_XXDXDX_PP] = pp
        if cross:
            out[M_XXDXDX_CROSS] = cross
        return out
    if sig == (4, 0, 0, 2):
        a1, a2, a3, a4 = expand(mu)
        pairings = (
            (1 if (a1 == a2 and a3 == a4) else 0)
            + (1 if (a1 == a3 and a2 == a4) else 0)
            + (1 if (a1 == a4 and a2 == a3) else 0)
        )
        return {M_X4DZDZ: pairings} if pairings else {}
    raise UnclassifiedMomentError(
        "moment pattern x^%s z^%s dx^%s dz^%s is outside the classified cases"
        % (mu, nu, kx, kz)
    )


@dataclass(frozen=True)
class C1Reduction:
    """Outcome of the structural c1 reduction."""

    n: int
    result: Sym  # kappa * sum_k a_k M_k
    kappa_coefficients: dict  # moment label -> Fraction
    log: tuple
    classified_terms: int
    parity_killed_terms: int

    def final_line(self):
        if self.result.is_zero():
            return "c1 = 0"
        parts = []
        for label in MOMENT_LABELS:
            c = self.kappa_coefficients.get(label)
            if c:
                parts.append("(%s)*%s" % (c, label))
        return "c1 = (%s) * kappa" % " + ".join(parts)


def reduce_c1(spec, symbols=None):
    """Reduce the second-invariant convolution integral to a kappa multiple.

    Applies the parity/invariance classification to every coordinate term of
    P2, collects the tensor coefficient of each abstract moment symbol, and
    reduces it with the contraction identities.  Any surviving non-kappa
    symbol raises ReductionError (it would contradict the universality of
    the second invariant).

    The cyclic garbage collector is paused for the call: the reduction
    allocates millions of small dicts and tuples, and the collections they
    trigger cost time.  On return or raise the collector is re-enabled if it
    was enabled before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reduce_c1(spec, symbols)
    finally:
        if enabled:
            gc.enable()


def _reduce_c1(spec, symbols):
    if symbols is None:
        symbols = TensorSymbols(spec)
    m, r = spec.m, spec.r
    coeffs = expansion_coefficients(spec, symbols)
    div = divergence_coefficient(spec, coeffs)
    op = build_P2(spec, coeffs, div)
    coord, killed = _coordinate_terms(spec, op)

    log = []
    per_class = {}  # moment label -> its tensor coefficient
    classified = 0
    per_class_counts = {}
    for deriv, poly in sorted(coord.items()):
        # one read of terms, a property that builds a new dict each time
        for mono, c in sorted(poly.terms.items()):
            decomp = _moment_decomposition(mono, deriv, m)
            if not decomp:
                # _coordinate_terms drops every parity mismatch, and every
                # parity-consistent pattern has a class
                raise InvariantError("pattern %s d%s passed the parity filter but has no moment class" % (mono, deriv))
            classified += 1
            for label, mult in decomp.items():
                per_class_counts[label] = per_class_counts.get(label, 0) + 1
                per_class[label] = per_class.get(label, Sym.zero()) + c * mult
    log.append(
        "[moments] %d terms survive parity, %d killed; classes: %s"
        % (
            classified,
            killed,
            ", ".join("%s x%d" % (k, v) for k, v in sorted(per_class_counts.items())),
        )
    )

    relations = identity_relations(symbols)
    reducer = LinearReducer(relations)
    kappa_atom = ("kap",)
    coefficients = {}
    result = Sym.zero()
    for label, coeff in sorted(per_class.items()):
        if not coeff:  # the class's terms cancelled
            continue
        sublog = []
        nf = reducer.reduce(coeff, log=sublog)
        for line in sublog:
            log.append("[rewrite %s] %s" % (label, line))
        survivors = nf.atoms() - {kappa_atom}
        if survivors:
            raise ReductionError(
                "moment %s kept non-kappa symbols: %s"
                % (label, ", ".join(sorted(atom_str(a) for a in survivors)))
            )
        kc = nf.terms.get((kappa_atom,), Fraction(0))
        if () in nf.terms:
            raise ReductionError("moment %s kept a symbol-free constant" % label)
        if kc:
            coefficients[label] = kc
            result = result + Sym.symbol(("M", label)) * Sym.symbol(kappa_atom, kc)
        log.append("[result %s] coefficient of kappa: %s" % (label, kc))

    red = C1Reduction(
        n=spec.n if spec.n else 0,
        result=result,
        kappa_coefficients=coefficients,
        log=tuple(log),
        classified_terms=classified,
        parity_killed_terms=killed,
    )
    return red
