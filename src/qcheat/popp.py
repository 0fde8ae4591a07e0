"""Popp measure density and sublaplacian divergence terms at a point.

The density against the coframe volume is 1/sqrt(det B) where
B_ij = sum_{ab} b^i_{ab} b^j_{ab} is built from the vertical components
b^i_{ab} of horizontal brackets (Barilari-Rizzi, A formula for Popp's volume
in sub-Riemannian geometry, Anal. Geom. Metr. Spaces 1 (2013)).  For the
quaternionic structure constants b^i = -2 I^i this gives B = 16 n Id exactly,
hence density (16 n)^{-3/2}.  One exact elimination serves exact and float
frames; only the floor of its singularity test depends on the number type.  The
first-order sublaplacian coefficients are the structure-function traces
sum_a c^a_{a alpha}; entries may be numbers or exact polynomials (a test
traces the symbolic normal-frame data of the expansion layer through it).

A frame file is a JSON object with integer m and k, b as k matrices of
m x m numbers and, optionally, c as an (m+k) x (m+k) x m array of numbers.
A number is a JSON integer, a finite JSON float, or a string such as "1/2",
which becomes an exact Fraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .tensors import InvariantError

__all__ = ["AdaptedFrameData", "popp_B_matrix", "popp_density", "divergence_terms", "frame_data_from_spec"]

# relative pivot floor of the elimination for frames with float entries
_FLOAT_PIVOT_FLOOR = Fraction(1, 10**12)


def _numbers(value, depth, name):
    """value as tuples nested depth deep with numbers at the leaves; name is the key in messages."""
    if depth:
        if not isinstance(value, list):
            raise ValueError("%s must be lists nested 3 deep with numbers at the leaves" % name)
        return tuple(_numbers(v, depth - 1, name) for v in value)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("%s holds %r, which is not a finite number" % (name, value))


@dataclass(frozen=True)
class AdaptedFrameData:
    """Pointwise structure data of an adapted frame.

    b[i][a][b]: vertical components of horizontal brackets, antisymmetric in
    (a, b); c[a][b][alpha]: optional full structure functions for the
    divergence computation, indices over the full frame for (a, b) and
    horizontal alpha.
    """

    m: int
    k: int
    b: tuple
    c: tuple | None = None

    def __post_init__(self):
        if len(self.b) != self.k:
            raise ValueError("expected %d vertical bracket matrices" % self.k)
        for i, bi in enumerate(self.b, 1):
            if len(bi) != self.m or any(len(row) != self.m for row in bi):
                raise ValueError("bracket matrices must be %d x %d" % (self.m, self.m))
            for a in range(self.m):
                for bb in range(self.m):
                    if bi[a][bb] != -bi[bb][a]:
                        raise InvariantError("b^%d is not antisymmetric at (%d, %d)" % (i, a + 1, bb + 1))
        if self.c is not None:
            dim = self.m + self.k
            square = len(self.c) == dim and all(len(ca) == dim for ca in self.c)
            if not square or any(len(cab) != self.m for ca in self.c for cab in ca):
                raise ValueError("c must be (m+k) x (m+k) x m")

    @classmethod
    def parse(cls, text):
        """The frame file in text (see the module docstring); ValueError names what is wrong."""
        doc = json.loads(text)  # NaN and Infinity tokens parse to floats that _numbers rejects
        if not isinstance(doc, dict):
            raise ValueError("frame file must hold a JSON object")
        missing = [key for key in ("m", "k", "b") if key not in doc]
        if missing:
            raise ValueError("frame file lacks key(s): %s" % ", ".join(missing))
        m, k = doc["m"], doc["k"]
        if type(m) is not int or type(k) is not int:
            raise ValueError("m and k must be integers, got %r and %r" % (m, k))
        c = _numbers(doc["c"], 3, "c") if "c" in doc else None
        return cls(m=m, k=k, b=_numbers(doc["b"], 3, "b"), c=c)


def frame_data_from_spec(spec):
    """Adapted-frame data of the group's left-invariant frame: b^i_{ab} = -2 I^i_{ab}, the
    sign convention of the Popp computation (b = -2 g(I X, X)); the group law carries +2 I^i_{ab}."""
    b = tuple(tuple(tuple(-2 * v for v in row) for row in Ji) for Ji in spec.J)
    return AdaptedFrameData(m=spec.m, k=spec.r, b=b)


def _gram(b):
    return [[sum(v * w for ri, rj in zip(bi, bj) for v, w in zip(ri, rj)) for bj in b] for bi in b]


def popp_B_matrix(data):
    """B_ij = sum_{ab} b^i_{ab} b^j_{ab}; exact for exact entries, OverflowError past the double range."""
    B = _gram(data.b)
    if any(isinstance(v, float) and not math.isfinite(v) for row in B for v in row):
        raise OverflowError("B is out of floating-point range")
    return B


def popp_density(data):
    """(det B)^{-1/2}; fails naming a deficient vertical direction when B is singular.

    A float is a dyadic rational, so b is lifted to Fractions and B goes
    through one exact elimination without row exchanges for every number
    type.  Pivot l is D_l / D_{l-1}, the ratio of consecutive leading minors,
    and det B, the product of the pivots, is rounded once.  B is a Gram
    matrix, hence positive semidefinite, and pivot l is deficient when it is
    <= floor * B_ll: the floor is 0 when every entry of b is an int or
    Fraction, and 1e-12 otherwise, as float entries carry rounding.  A det B
    out of the double range raises OverflowError.
    """
    exact = all(isinstance(v, (int, Fraction)) for bi in data.b for row in bi for v in row)
    B = _gram(tuple(tuple(tuple(map(Fraction, row)) for row in bi) for bi in data.b))
    A = [list(row) for row in B]
    floor = 0 if exact else _FLOAT_PIVOT_FLOOR
    det = Fraction(1)
    for l in range(len(A)):
        pivot = A[l][l]
        if pivot <= floor * B[l][l]:
            raise InvariantError(
                "B is singular: vertical direction %d is deficient (bracket-generation fails)" % (l + 1)
            )
        det *= pivot
        for row in A[l + 1 :]:
            f = row[l] / pivot
            if f:
                for j in range(l, len(A)):
                    row[j] -= f * A[l][j]
    det = float(det)  # OverflowError past the largest double
    if det == 0.0:
        raise OverflowError("det B is below the smallest double")
    return det**-0.5


def divergence_terms(data):
    """Structure-function traces sum_a c^a_{a alpha} per horizontal alpha; OverflowError past the double range."""
    if data.c is None:
        raise ValueError("divergence terms need the full structure functions c")
    out = [reduce(add, (data.c[a][a][alpha] for a in range(data.m + data.k))) for alpha in range(data.m)]
    if any(isinstance(v, float) and not math.isfinite(v) for v in out):
        raise OverflowError("a divergence term is out of floating-point range")
    return out
