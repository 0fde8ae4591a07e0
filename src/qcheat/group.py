"""Step-two Carnot groups in exponential coordinates.

The central example is the quaternionic Heisenberg group: R^{4n} x R^3 with
brackets encoded by three skew matrices whose entries are the components
I^i_{ab} = <I_i e_a, e_b> of the almost complex structures.  Structure
constants are exact fractions so group-law and bracket identities can be
asserted without floating-point noise; numeric code pulls a float view.
A GroupSpec is built from its bracket matrices alone: m, r, whether the
quaternion relations hold, and then the level n = m / 4, are read off them.

Group law and measure normalization:

    (x, z) * (x', z') = (x + x', z_i + z'_i + 2 sum_{ab} J^i_{ab} x_a x'_b)
    haar density      = 1 / (8 (16n)^{3/2})   against Lebesgue dx dz
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "GroupSpec",
    "GroupPoint",
    "make_quaternionic_spec",
    "group_mul",
    "group_inverse",
]


def _mat_mul(a, b):
    """a b, summed over the nonzero entries of each row of a only."""
    m = len(a)
    out = []
    for row in a:
        acc = [0] * m
        for k, v in enumerate(row):
            if v:
                for j, w in enumerate(b[k]):
                    acc[j] += v * w
        out.append(tuple(acc))
    return tuple(out)


def _is_skew(a):
    m = len(a)
    return all(a[i][j] == -a[j][i] for i in range(m) for j in range(m))


def _is_minus_identity(a):
    m = len(a)
    return all(a[i][j] == (-1 if i == j else 0) for i in range(m) for j in range(m))


@dataclass(frozen=True)
class GroupSpec:
    """A step-two Carnot group R^m x R^r with vertical bracket matrices J.

    J, r skew m x m matrices, is the only input: J[i][a][b] holds the exact
    rational component I^i_{ab}.  m and r are read off its shape.  The spec
    is quaternionic, of level n = m / 4, when r = 3, 4 divides m and the
    quaternion relations (J^i)^2 = J^1 J^2 J^3 = -Id hold exactly; otherwise
    n is None.
    """

    J: tuple  # r skew m x m matrices of Fraction
    m: int = field(init=False)
    r: int = field(init=False)
    n: int | None = field(init=False)  # quaternionic level, if applicable
    quaternionic: bool = field(init=False)

    def __post_init__(self):
        r = len(self.J)
        m = len(self.J[0]) if r else 0
        if m < 1 or r < 1:
            raise ValueError("need m >= 1 horizontal and r >= 1 vertical directions")
        for Ji in self.J:
            if len(Ji) != m or any(len(row) != m for row in Ji):
                raise ValueError("bracket matrices must all be %d x %d" % (m, m))
            if not _is_skew(Ji):
                raise ValueError("bracket matrices must be skew-symmetric")
        quaternionic = (
            r == 3
            and m % 4 == 0
            and all(_is_minus_identity(_mat_mul(Ji, Ji)) for Ji in self.J)
            and _is_minus_identity(_mat_mul(_mat_mul(self.J[0], self.J[1]), self.J[2]))
        )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", m // 4 if quaternionic else None)
        object.__setattr__(self, "quaternionic", quaternionic)

    @property
    def dim(self):
        return self.m + self.r

    @property
    def haar_factor(self):
        """Nilpotentized Popp density against Lebesgue, 1/(8 (16n)^{3/2}) = n^{-3/2} / 512.

        ValueError unless the spec is quaternionic.
        """
        if not self.quaternionic:
            raise ValueError("the haar factor is only defined for the quaternionic spec")
        return 0.001953125 * float(self.n) ** -1.5

    def J_float(self):
        """Float view of the bracket matrices, shape (r, m, m)."""
        return np.array([[[float(v) for v in row] for row in Ji] for Ji in self.J])


@dataclass(frozen=True)
class GroupPoint:
    """A point (x, z) in exponential coordinates; identity is (0, 0)."""

    x: tuple
    z: tuple


def identity_point(spec):
    return GroupPoint(x=(0,) * spec.m, z=(0,) * spec.r)


# Component arrays of the three almost complex structures on one quaternionic
# block, in the frame convention I_i X_{4k+1} = X_{4k+i+1}.  These are the
# transposed right-multiplication matrices; with them the *arrays* satisfy
# J^1 J^2 J^3 = -Id (the operator identity I_1 I_2 I_3 = -Id holds for the
# transposes).
_QUATERNION_BLOCKS = (
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),
)


def make_quaternionic_spec(n):
    """Quaternionic Heisenberg group of level n (dimension 4n + 3)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("quaternionic level n must be a positive integer")
    m = 4 * n
    J = []
    for i in range(3):
        block = _QUATERNION_BLOCKS[i]
        rows = []
        for a in range(m):
            row = [Fraction(0)] * m
            k, a4 = divmod(a, 4)
            for b4 in range(4):
                v = block[a4][b4]
                if v:
                    row[4 * k + b4] = Fraction(v)
            rows.append(tuple(row))
        J.append(tuple(rows))
    return GroupSpec(J=tuple(J))


def group_mul(spec, h, hp):
    """Group product h * hp; exact when the coordinates are exact."""
    if len(h.x) != spec.m or len(hp.x) != spec.m or len(h.z) != spec.r or len(hp.z) != spec.r:
        raise ValueError("point dimensions do not match the spec")
    x = tuple(a + b for a, b in zip(h.x, hp.x))
    z = []
    for i in range(spec.r):
        Ji = spec.J[i]
        acc = h.z[i] + hp.z[i]
        for a in range(spec.m):
            ha = h.x[a]
            if ha:
                row = Ji[a]
                acc = acc + 2 * ha * sum(row[b] * hp.x[b] for b in range(spec.m) if row[b])
        z.append(acc)
    return GroupPoint(x=x, z=tuple(z))


def group_inverse(h):
    return GroupPoint(x=tuple(-v for v in h.x), z=tuple(-v for v in h.z))

