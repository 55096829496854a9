"""Hankel matrices of normalized values, exact determinants, and the
LU-factorization / Hankel-transform identities.

The determinant det(W*[s+i+j, s+j])_{0<=i,j<=n} factors as
prod_{k=0}^{n} [m(s+k)+r]_q^k; the fraction-free elimination keeps every
interior division exact, and a cofactor expansion doubles as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qcore import LaurentPoly, ONE, ZERO, laurent_exact_div, q_int
from .whitney import WhitneyParams, w_star


@dataclass(frozen=True)
class HankelSpec:
    """Matrix of order n+1 with entries W*_{m,r}[s+i+j, s+j]_q."""

    params: WhitneyParams
    s: int
    n: int

    def __post_init__(self):
        if self.s < 0 or self.n < 0:
            raise ValueError("s and n must be >= 0")


@dataclass(frozen=True)
class ExactMatrix:
    """Square matrix of LaurentPoly entries."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def hankel_matrix(spec: HankelSpec) -> ExactMatrix:
    """Entry (i,j) is W*_{m,r}[s+i+j, s+j]_q."""
    s, n = spec.s, spec.n
    return ExactMatrix(tuple(
        tuple(w_star(spec.params, s + i + j, s + j) for j in range(n + 1))
        for i in range(n + 1)))


def det_cofactor(mat: ExactMatrix) -> LaurentPoly:
    """Determinant by first-row cofactor expansion (oracle for small orders)."""
    rows = [list(r) for r in mat.entries]

    def rec(rs):
        if len(rs) == 1:
            return rs[0][0]
        acc = ZERO
        for j, entry in enumerate(rs[0]):
            if entry.is_zero():
                continue
            minor = [row[:j] + row[j + 1:] for row in rs[1:]]
            sign = -1 if j % 2 else 1
            acc = acc + entry * rec(minor) * sign
        return acc

    return rec(rows)


def det_exact(mat: ExactMatrix) -> LaurentPoly:
    """Determinant via fraction-free (Bareiss) elimination in the Laurent ring.

    No row exchanges: a zero pivot falls back to the cofactor expansion, since
    the Hankel matrices of interest have nonvanishing leading minors.
    """
    n = mat.order
    if n == 1:
        return mat[0, 0]
    a = [list(row) for row in mat.entries]
    prev = ONE
    for p in range(n - 1):
        if a[p][p].is_zero():
            return det_cofactor(mat)
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                a[i][j] = laurent_exact_div(
                    a[i][j] * a[p][p] - a[i][p] * a[p][j], prev)
        prev = a[p][p]
    return a[n - 1][n - 1]


def hankel_closed_form(spec: HankelSpec) -> LaurentPoly:
    """prod_{k=0}^{n} [m(s+k)+r]_q^k."""
    m, r = spec.params.m, spec.params.r
    out = ONE
    for k in range(spec.n + 1):
        out = out * q_int(m * (spec.s + k) + r) ** k
    return out


def hankel_transform_check(spec: HankelSpec, det: LaurentPoly = None) -> bool:
    """Does the exact determinant equal the closed-form product?

    ``det`` is ``det_exact(hankel_matrix(spec))``, computed here when not
    given."""
    if det is None:
        det = det_exact(hankel_matrix(spec))
    return det == hankel_closed_form(spec)


def lu_factors(spec: HankelSpec):
    """The lower and upper factors read off the parameter-shifted values:
    L[i][j] = W*_{m,r}[s+i, s+j]_q (j <= i),
    U[i][j] = W*_{m,r+m(s+i)}[j, j-i]_q (i <= j)."""
    params, s, n = spec.params, spec.s, spec.n
    lower = ExactMatrix(tuple(
        tuple(w_star(params, s + i, s + j) if j <= i else ZERO
              for j in range(n + 1))
        for i in range(n + 1)))
    upper = ExactMatrix(tuple(
        tuple(w_star(WhitneyParams(params.m, params.r + params.m * (s + i)),
                     j, j - i) if i <= j else ZERO
              for j in range(n + 1))
        for i in range(n + 1)))
    return lower, upper


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.order != b.order:
        raise ValueError("order mismatch")
    n = a.order
    return ExactMatrix(tuple(
        tuple(sum((a[i, k] * b[k, j] for k in range(n)), ZERO)
              for j in range(n))
        for i in range(n)))


def lu_check(spec: HankelSpec, mat: ExactMatrix = None,
             det: LaurentPoly = None) -> bool:
    """Does L*U reproduce the Hankel matrix entrywise, with the determinant
    equal to the product of the diagonals?

    ``mat`` is ``hankel_matrix(spec)`` and ``det`` is ``det_exact(mat)``;
    each is computed here when not given."""
    if mat is None:
        mat = hankel_matrix(spec)
    lower, upper = lu_factors(spec)
    if matmul(lower, upper).entries != mat.entries:
        return False
    diag = ONE
    for k in range(spec.n + 1):
        diag = diag * lower[k, k] * upper[k, k]
    if det is None:
        det = det_exact(mat)
    return det == diag


def _int_det(rows) -> int:
    """Bareiss determinant over the integers (classical q=1 matrices)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 1:
        return a[0][0]
    prev = 1
    for p in range(n - 1):
        if a[p][p] == 0:
            # single row swap with sign flip; repeated zeros mean det 0 blocks
            for i in range(p + 1, n):
                if a[i][p] != 0:
                    a[p], a[i] = a[i], a[p]
                    for j in range(n):
                        a[p][j] = -a[p][j]
                    break
            else:
                return 0
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                a[i][j] = (a[i][j] * a[p][p] - a[i][p] * a[p][j]) // prev
        prev = a[p][p]
    return a[n - 1][n - 1]


def classical_hankel_check(m: int, r: int, s: int, n: int) -> bool:
    """q=1 corollary: det(W_{m,r}(s+i+j, s+j)) = prod_k (m(s+k)+r)^k."""
    params = WhitneyParams(m, r)
    rows = [[int(w_star(params, s + i + j, s + j).eval(Fraction(1)))
             for j in range(n + 1)] for i in range(n + 1)]
    expected = 1
    for k in range(n + 1):
        expected *= (m * (s + k) + r) ** k
    return _int_det(rows) == expected
