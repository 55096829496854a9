"""Hankel matrices of normalized values, exact determinants, and the
LU-factorization / Hankel-transform identities.

The determinant det(W*[s+i+j, s+j])_{0<=i,j<=n} factors as
prod_{k=0}^{n} [m(s+k)+r]_q^k.  One fraction-free elimination loop,
``bareiss``, computes both this determinant over the Laurent ring and its
q=1 corollary over the ints; it keeps every interior division exact.  Its
pivots are the leading minors (Sylvester's identity), so one elimination
of the largest matrix of a family gives the determinant of every smaller
order (``leading_dets``), and one L*U product (``lu_product``) gives every
order's product as a leading block.  The two checks take that matrix,
determinant and product as arguments.  ``det_cofactor`` is the test
oracle and is not called by the library.

Each Bareiss division is by the previous pivot, a leading minor, which
the theorem says is the product of [a]_q over ``hankel_factors`` of its
order.  ``hankel_matrix`` records those factor lists, and the
eliminations of ``det_exact`` and ``leading_dets`` divide by a pivot one
q-integer at a time (``qcore.laurent_div_q_ints``) when, and only when,
the pivot equals the product of its list; any other pivot goes to
``qcore.laurent_exact_div``.  So the determinant is the same exact value
whether the theorem holds or not, and the hankel_transform check can
still fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import floordiv

from .qcore import (LaurentPoly, ONE, ZERO, laurent_div_q_ints,
                    laurent_exact_div, q_int)
from .whitney import WhitneyParams, classical_w, w_star


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
    """Square matrix of LaurentPoly entries.

    ``minor_factors[o-1]``, where given, lists the a whose product of
    [a]_q is expected to be the leading minor of order o.  It only speeds
    up the eliminations of ``det_exact`` and ``leading_dets``: a pivot
    that equals that product is divided as the product of q-integers, any
    other pivot by ``laurent_exact_div``.  It never changes a value, and
    equality ignores it.
    """

    entries: tuple
    minor_factors: tuple = field(default=(), compare=False)

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
    """Entry (i,j) is W*_{m,r}[s+i+j, s+j]_q; each leading minor is
    expected to be the closed form of its order (``hankel_factors``)."""
    params, s, n = spec.params, spec.s, spec.n
    return ExactMatrix(tuple(
        tuple(w_star(params, s + i + j, s + j) for j in range(n + 1))
        for i in range(n + 1)), tuple(
        hankel_factors(HankelSpec(params, s, o)) for o in range(n + 1)))


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


def bareiss(rows, exact_div) -> tuple:
    """Fraction-free (Bareiss) elimination of a square matrix over an
    integral domain: ``(det, minors)``.

    ``exact_div(a, b)`` divides exactly: ``//`` for ints,
    ``laurent_exact_div`` for Laurent polynomials.  A zero pivot is
    replaced by swapping in a later row with a nonzero entry in its column
    (flipping the sign); when the whole column is zero the determinant is
    zero.  By Sylvester's identity the pivot of step p is the leading
    minor of order p+1, until the first swap reorders the rows: ``minors``
    lists the leading minors of orders 1, 2, ... up to and including the
    first zero pivot.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, None
    minors, leading = [], True  # leading: no row swapped yet
    for p in range(n - 1):
        if leading:
            minors.append(a[p][p])
        if not a[p][p]:
            i = next((i for i in range(p + 1, n) if a[i][p]), None)
            if i is None:
                return a[p][p], minors  # the ring's zero
            a[p], a[i] = a[i], a[p]
            sign, leading = -sign, False
        pivot = a[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                x = a[i][j] * pivot - a[i][p] * a[p][j]
                a[i][j] = x if prev is None else exact_div(x, prev)
        prev = pivot
    if leading:
        minors.append(a[n - 1][n - 1])
    return (a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]), minors


def _pivot_divider(mat: ExactMatrix):
    """``exact_div`` for the elimination of mat: a divisor equal to the
    product of [a]_q over the factor list of a leading minor below
    mat.order (the last pivot divides nothing) is divided by those
    q-integers (``laurent_div_q_ints``), any other by
    ``laurent_exact_div``.  The equality is checked first, so the quotient
    is the same whether or not the lists are right."""
    products = {}
    for factors in mat.minor_factors[:mat.order - 1]:
        product = ONE
        for a in factors:
            product = product * q_int(a)
        products.setdefault(product, factors)

    def divide(x: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        factors = products.get(b)
        if factors is None:
            return laurent_exact_div(x, b)
        return laurent_div_q_ints(x, factors)

    return divide


def det_exact(mat: ExactMatrix) -> LaurentPoly:
    """Determinant via fraction-free (Bareiss) elimination in the Laurent
    ring.  Every divisor is a pivot; those of orders below mat.order are
    divided as products of q-integers where ``mat.minor_factors`` predicts
    them."""
    return bareiss(mat.entries, _pivot_divider(mat))[0]


def leading_block(mat: ExactMatrix, order: int) -> ExactMatrix:
    """The top-left order x order block of mat."""
    return ExactMatrix(tuple(row[:order] for row in mat.entries[:order]),
                       mat.minor_factors[:order])


def leading_dets(mat: ExactMatrix) -> list:
    """det(leading_block(mat, k)) for k = 1..mat.order from one
    elimination of mat: each order's determinant is a pivot (``bareiss``),
    divided as ``det_exact`` divides.  An order past the first zero pivot
    falls back to ``det_exact`` of its leading block."""
    _, minors = bareiss(mat.entries, _pivot_divider(mat))
    return minors + [det_exact(leading_block(mat, k))
                     for k in range(len(minors) + 1, mat.order + 1)]


def hankel_factors(spec: HankelSpec) -> tuple:
    """The a, each m(s+k)+r repeated k times for k = 0..n, whose product
    of [a]_q is the closed form."""
    m, r, s = spec.params.m, spec.params.r, spec.s
    return tuple(m * (s + k) + r for k in range(spec.n + 1) for _ in range(k))


def hankel_closed_form(spec: HankelSpec) -> LaurentPoly:
    """prod_{k=0}^{n} [m(s+k)+r]_q^k, one sliding-window product per
    q-integer."""
    out = ONE
    for a in hankel_factors(spec):
        out = out * q_int(a)
    return out


def hankel_transform_check(spec: HankelSpec, det: LaurentPoly) -> bool:
    """Does ``det``, the exact determinant det_exact(hankel_matrix(spec)),
    equal the closed-form product?"""
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


def lu_product(spec: HankelSpec) -> tuple:
    """``(L*U, diagonal)`` for the factors of ``lu_factors(spec)``, where
    diagonal[k] = prod_{i<=k} L[i,i] U[i,i].

    L is lower and U upper triangular, so the leading (k+1)-block of L*U
    is the product of their leading blocks and diagonal[k] is its
    determinant: one product serves every order up to spec.n + 1."""
    lower, upper = lu_factors(spec)
    diagonal, acc = [], ONE
    for k in range(spec.n + 1):
        acc = acc * lower[k, k] * upper[k, k]
        diagonal.append(acc)
    return matmul(lower, upper), diagonal


def lu_check(spec: HankelSpec, mat: ExactMatrix, det: LaurentPoly,
             lu: tuple) -> bool:
    """Does L*U reproduce the Hankel matrix entrywise, with the determinant
    equal to the product of the diagonals?

    ``mat`` is ``hankel_matrix`` of (spec.params, spec.s) at order
    spec.n + 1 or larger, ``det`` is the determinant of its leading
    (spec.n + 1)-block and ``lu`` is ``lu_product`` of (spec.params,
    spec.s) at order spec.n + 1 or larger; only leading blocks are
    compared."""
    order = spec.n + 1
    product, diagonal = lu
    return (leading_block(product, order) == leading_block(mat, order)
            and det == diagonal[spec.n])


def classical_hankel_check(m: int, r: int, s: int, n: int) -> bool:
    """q=1 corollary: det(W_{m,r}(s+i+j, s+j)) = prod_k (m(s+k)+r)^k.

    W* and W differ by a power of q, so their q=1 entries agree."""
    params = WhitneyParams(m, r)
    rows = [[classical_w(params, s + i + j, s + j) for j in range(n + 1)]
            for i in range(n + 1)]
    expected = 1
    for k in range(n + 1):
        expected *= (m * (s + k) + r) ** k
    return bareiss(rows, floordiv)[0] == expected
