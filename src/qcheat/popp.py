"""Popp measure density and sublaplacian divergence terms at a point.

The density against the coframe volume is 1/sqrt(det B) where
B_ij = sum_{ab} b^i_{ab} b^j_{ab} is built from the vertical components
b^i_{ab} of horizontal brackets.  For the quaternionic structure constants
b^i = -2 I^i this gives B = 16 n Id exactly, hence density (16 n)^{-3/2}.
The first-order sublaplacian coefficients are the structure-function traces
sum_a c^a_{a alpha}; entries may be numbers or exact polynomials (a test
traces the symbolic normal-frame data of the expansion layer through it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensors import InvariantError

__all__ = ["AdaptedFrameData", "popp_B_matrix", "popp_density", "divergence_terms", "frame_data_from_spec"]


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
            if len(self.c) != dim or any(len(ca) != dim for ca in self.c):
                raise ValueError("c must be (m+k) x (m+k) x m")


def frame_data_from_spec(spec):
    """Adapted-frame data of the group's left-invariant frame: b^i = -2 I^i."""
    b = spec.bracket_b_matrices()
    return AdaptedFrameData(m=spec.m, k=spec.r, b=b)


def popp_B_matrix(data):
    """B_ij = sum_{ab} b^i_{ab} b^j_{ab}; exact for exact entries."""
    k, m = data.k, data.m
    B = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = None
            for a in range(m):
                for c in range(m):
                    term = data.b[i][a][c] * data.b[j][a][c]
                    acc = term if acc is None else acc + term
            row.append(acc if acc is not None else 0)
        B.append(row)
    return B


def popp_density(data):
    """(det B)^{-1/2}; fails naming a deficient vertical direction when B is not positive definite.

    Exact B goes through one exact elimination without row exchanges: its
    pivot l is D_l / D_{l-1}, the ratio of consecutive leading minors, so the
    first pivot <= 0 is the first leading minor <= 0 (Sylvester's
    criterion), and det B is the product of the pivots.  Float B goes
    through its eigenvalues.
    """
    B = popp_B_matrix(data)
    k = len(B)
    exact = all(isinstance(B[i][j], (int, Fraction)) for i in range(k) for j in range(k))
    if exact:
        A = [[Fraction(v) for v in row] for row in B]
        det = Fraction(1)
        for l in range(k):
            pivot = A[l][l]
            if pivot <= 0:
                raise InvariantError(
                    "B is not positive definite: vertical direction %d is deficient" % (l + 1)
                )
            det *= pivot
            for row in A[l + 1 :]:
                f = row[l] / pivot
                if f:
                    for j in range(l, k):
                        row[j] -= f * A[l][j]
        return float(det) ** -0.5
    Bf = np.array(B, dtype=float)
    vals, vecs = np.linalg.eigh(Bf)
    scale = max(abs(vals).max(), 1.0)
    if vals.min() <= 1e-12 * scale:
        null = vecs[:, int(np.argmin(vals))]
        worst = int(np.argmax(np.abs(null)))
        raise InvariantError(
            "B is singular: vertical direction %d is deficient (bracket-generation fails)"
            % (worst + 1)
        )
    return float(np.prod(vals)) ** -0.5


def divergence_terms(data):
    """Structure-function traces sum_a c^a_{a alpha} per horizontal alpha."""
    if data.c is None:
        raise ValueError("divergence terms need the full structure functions c")
    dim = data.m + data.k
    out = []
    for alpha in range(data.m):
        acc = None
        for a in range(dim):
            term = data.c[a][a][alpha]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out
