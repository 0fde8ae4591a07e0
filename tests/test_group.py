"""Exact checks of the quaternionic Heisenberg group structure."""

import random
from fractions import Fraction

import pytest

from qcheat.group import (
    GroupPoint,
    GroupSpec,
    group_inverse,
    group_mul,
    identity_point,
    make_quaternionic_spec,
)


def mat_mul(a, b):
    m = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


def rand_point(spec, rng):
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(spec.m))
    z = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(spec.r))
    return GroupPoint(x=x, z=z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quaternionic_matrix_identities(n):
    spec = make_quaternionic_spec(n)
    m = spec.m
    minus_id = [[-1 if i == j else 0 for j in range(m)] for i in range(m)]
    for Ji in spec.J:
        assert all(Ji[i][j] == -Ji[j][i] for i in range(m) for j in range(m))
        assert mat_mul(Ji, Ji) == minus_id
    assert mat_mul(mat_mul(spec.J[0], spec.J[1]), spec.J[2]) == minus_id
    for i in range(3):
        for j in range(3):
            if i != j:
                anti = mat_mul(spec.J[i], spec.J[j])
                anti2 = mat_mul(spec.J[j], spec.J[i])
                assert all(
                    anti[a][b] + anti2[a][b] == 0 for a in range(m) for b in range(m)
                )


def _replace_J(spec, i, Ji):
    J = list(spec.J)
    J[i] = Ji
    return GroupSpec(J=tuple(J))


def test_quaternion_relation_failures_make_a_plain_spec():
    spec = make_quaternionic_spec(2)
    assert GroupSpec(J=spec.J) == spec
    assert (spec.m, spec.r, spec.n, spec.quaternionic) == (8, 3, 2, True)
    # 2 J^1 is skew, but its square is -4 Id
    doubled = tuple(tuple(2 * v for v in row) for row in spec.J[0])
    # -J^3 squares to -Id, but the triple product becomes +Id
    negated = tuple(tuple(-v for v in row) for row in spec.J[2])
    for bad in (_replace_J(spec, 0, doubled), _replace_J(spec, 2, negated)):
        assert (bad.m, bad.r, bad.n, bad.quaternionic) == (8, 3, None, False)
        with pytest.raises(ValueError, match="quaternionic spec"):
            bad.haar_factor
    # r = 2, or m = 6, which 4 does not divide, is not quaternionic either
    for J in (spec.J[:2], tuple(tuple(tuple(row[:6]) for row in Ji[:6]) for Ji in spec.J)):
        plain = GroupSpec(J=J)
        assert plain.n is None and not plain.quaternionic


def test_quaternionic_spec_builds_at_n40():
    spec = make_quaternionic_spec(40)
    assert spec.m == 160
    assert spec.J[2][159][156] == -1


def test_frame_convention_entry():
    # I_1 X_1 = X_2 forces I^1_{12} = +1
    spec = make_quaternionic_spec(1)
    assert spec.J[0][0][1] == 1


def test_haar_factor():
    # 1/(8 (16n)^{3/2}) = n^{-3/2} / 512, in the bits of float(1/512) * float(n) ** float(-3/2)
    for n in (1, 2, 3, 7):
        want = float(Fraction(1, 512)) * float(n) ** float(Fraction(-3, 2))
        assert make_quaternionic_spec(n).haar_factor == want
    assert make_quaternionic_spec(1).haar_factor == 1.0 / 512.0


def test_rejects_bad_level():
    with pytest.raises(ValueError):
        make_quaternionic_spec(0)


def test_identity_and_inverse():
    spec = make_quaternionic_spec(1)
    rng = random.Random(7)
    e = identity_point(spec)
    for _ in range(50):
        h = rand_point(spec, rng)
        assert group_mul(spec, h, e) == h
        assert group_mul(spec, e, h) == h
        assert group_mul(spec, h, group_inverse(h)) == e
        assert group_mul(spec, group_inverse(h), h) == e


def test_associativity_random_triples():
    spec = make_quaternionic_spec(1)
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (rand_point(spec, rng) for _ in range(3))
        assert group_mul(spec, group_mul(spec, a, b), c) == group_mul(
            spec, a, group_mul(spec, b, c)
        )


def test_dimension_mismatch_rejected():
    spec = make_quaternionic_spec(1)
    bad = GroupPoint(x=(Fraction(1),) * 3, z=(Fraction(0),) * 3)
    with pytest.raises(ValueError):
        group_mul(spec, bad, identity_point(spec))


def test_generic_step_two_spec():
    heis = GroupSpec(J=(((0, 1), (-1, 0)),))
    assert (heis.m, heis.r, heis.dim, heis.n, heis.quaternionic) == (2, 1, 3, None, False)
    with pytest.raises(ValueError, match="skew"):
        GroupSpec(J=(((0, 1), (1, 0)),))
    with pytest.raises(ValueError, match="2 x 2"):
        GroupSpec(J=(((0, 1), (-1, 0)), ((0,),)))  # matrices of two sizes
    with pytest.raises(ValueError, match="m >= 1"):
        GroupSpec(J=())
    with pytest.raises(TypeError):
        GroupSpec(J=heis.J, n=1)  # m, r, n and quaternionic are derived, not set
