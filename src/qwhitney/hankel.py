"""Hankel matrices of normalized values, exact determinants, and the
LU-factorization / Hankel-transform identities.

The determinant det(W*[s+i+j, s+j])_{0<=i,j<=n} factors as
prod_{k=0}^{n} [m(s+k)+r]_q^k.  A matrix is a tuple of row tuples.  One
fraction-free elimination loop, ``bareiss``, computes both this
determinant over the Laurent ring and its q=1 corollary over the ints; it
keeps every interior division exact.  Its pivots are the leading minors
(Sylvester's identity), so one elimination of the largest matrix of a
family gives the determinant of every smaller order (``leading_dets``),
and one L*U product (``lu_product``) gives every order's product as a
leading block.  ``hankel_closed_forms`` gives every order's closed form,
with the list of a whose [a]_q multiply to it, from one prefix product.

Each Bareiss division is by the previous pivot, a leading minor, which
the theorem says is the closed form of its order.  ``leading_dets`` takes
the family's closed forms and divides by a pivot one q-integer at a time
(``qcore.laurent_div_q_ints``) when, and only when, the pivot equals one
of them and that one's factor list divides it to 1; any other pivot goes
to ``qcore.laurent_exact_div``.  So the determinant is the same exact
value whether the theorem holds or not, and whatever list it is given:
the hankel_transform check, det == closed form, can still fail.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from operator import floordiv

from .qcore import (DivisionByZero, LaurentPoly, NonExactDivision, ONE,
                    ZERO, laurent_div_q_ints, laurent_exact_div, poly_sum,
                    q_int)
from .whitney import WhitneyParams, classical_w, row_degree, w_star


class HankelSpec(namedtuple("HankelSpec", "params s n")):
    """Matrix of order n+1 with entries W*_{m,r}[s+i+j, s+j]_q."""

    __slots__ = ()

    def __new__(cls, params: WhitneyParams, s: int, n: int):
        if s < 0 or n < 0:
            raise ValueError("s and n must be >= 0")
        return super().__new__(cls, params, s, n)


def hankel_matrix(spec: HankelSpec) -> tuple:
    """Rows of the matrix: entry (i,j) is W*_{m,r}[s+i+j, s+j]_q."""
    params, s, n = spec.params, spec.s, spec.n
    return tuple(
        tuple(w_star(params, s + i + j, s + j) for j in range(n + 1))
        for i in range(n + 1))


def degree_bound(spec: HankelSpec) -> int:
    """A bound on the degree of every polynomial that the family of spec's
    order or smaller builds: the largest of

    - the top degree of row s+2n of the triangle, the largest one read;
    - 2 C(n+1,2) D, D = m(s+n)+r-1.  Entry (i,j) has degree at most
      i (m(s+j)+r-1) <= i D, so every minor, and so every Bareiss entry
      (Sylvester), has degree at most C(n+1,2) D, and each dividend is a
      difference of two products of two minors;
    - the top degree m C(n,2) + (r+m(s+n)) n of the U factor's rows.
    """
    m, r, s, n = spec.params.m, spec.params.r, spec.s, spec.n
    return max(row_degree(m, r, s + 2 * n),
               2 * comb(n + 1, 2) * (m * (s + n) + r - 1),
               row_degree(m, r + m * (s + n), n))


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


def det_exact(rows) -> LaurentPoly:
    """Determinant of a square matrix of LaurentPoly entries by Bareiss
    elimination, every division by ``laurent_exact_div``."""
    return bareiss(rows, laurent_exact_div)[0]


def _divides_to_one(x: LaurentPoly, factors: tuple) -> bool:
    """Is x the product of [a]_q over factors?"""
    try:
        return laurent_div_q_ints(x, factors) == ONE
    except (NonExactDivision, DivisionByZero):
        return False


def leading_dets(rows, closed_forms) -> list:
    """The determinants of the leading blocks of orders 1..len(rows) of a
    Hankel matrix, from one elimination: each is a pivot (``bareiss``).

    ``closed_forms`` is ``hankel_closed_forms`` of the matrix's family, or
    any list of (product, factors) pairs.  A pivot is divided by the
    q-integers of a list only when it equals a product that the list
    divides to 1, any other by ``laurent_exact_div``; both are checked
    first, so the quotients do not depend on the closed forms.  Only the
    orders below len(rows) are checked, since the last pivot divides
    nothing.  An order past the first zero pivot is ``det_exact`` of its
    leading block."""
    factor_lists = {closed: factors
                    for closed, factors in closed_forms[:len(rows) - 1]
                    if _divides_to_one(closed, factors)}

    def divide(x: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        factors = factor_lists.get(b)
        if factors is None:
            return laurent_exact_div(x, b)
        return laurent_div_q_ints(x, factors)

    _, minors = bareiss(rows, divide)
    return minors + [det_exact(tuple(row[:k] for row in rows[:k]))
                     for k in range(len(minors) + 1, len(rows) + 1)]


def hankel_factors(spec: HankelSpec) -> tuple:
    """The a, each m(s+k)+r repeated k times for k = 0..n, whose product
    of [a]_q is the closed form."""
    m, r, s = spec.params.m, spec.params.r, spec.s
    return tuple(m * (s + k) + r for k in range(spec.n + 1) for _ in range(k))


def hankel_closed_forms(spec: HankelSpec) -> list:
    """``(closed form, factors)`` for each order n'+1, n' = 0..spec.n, of
    spec's family: factors is hankel_factors at n', the first C(n'+1, 2)
    entries of spec's, and the closed form prod_{k<=n'} [m(s+k)+r]_q^k is
    the product of their [a]_q, one sliding-window product per
    q-integer."""
    factors = hankel_factors(spec)
    forms, product = [], ONE
    for n in range(spec.n + 1):
        for a in factors[comb(n, 2):comb(n + 1, 2)]:
            product = product * q_int(a)
        forms.append((product, factors[:comb(n + 1, 2)]))
    return forms


def lu_factors(spec: HankelSpec) -> tuple:
    """The lower and upper factors read off the parameter-shifted values:
    L[i][j] = W*_{m,r}[s+i, s+j]_q (j <= i),
    U[i][j] = W*_{m,r+m(s+i)}[j, j-i]_q (i <= j)."""
    params, s, n = spec.params, spec.s, spec.n
    lower = tuple(
        tuple(w_star(params, s + i, s + j) if j <= i else ZERO
              for j in range(n + 1))
        for i in range(n + 1))
    upper = tuple(
        tuple(w_star(WhitneyParams(params.m, params.r + params.m * (s + i)),
                     j, j - i) if i <= j else ZERO
              for j in range(n + 1))
        for i in range(n + 1))
    return lower, upper


def lu_product(spec: HankelSpec) -> tuple:
    """``(L*U, diagonal)`` for the factors of ``lu_factors(spec)``, where
    diagonal[k] = prod_{i<=k} L[i][i] U[i][i].

    L is lower and U upper triangular, so the leading (k+1)-block of L*U
    is the product of their leading blocks and diagonal[k] is its
    determinant: one product serves every order up to spec.n + 1.  Entry
    (i, j) is one ``poly_sum`` over k <= min(i, j), the nonzero halves."""
    lower, upper = lu_factors(spec)
    diagonal, acc = [], ONE
    for k in range(spec.n + 1):
        acc = acc * lower[k][k] * upper[k][k]
        diagonal.append(acc)
    size = range(spec.n + 1)
    product = tuple(tuple(poly_sum(lower[i][k] * upper[k][j]
                                   for k in range(min(i, j) + 1))
                          for j in size) for i in size)
    return product, diagonal


def lu_check(order: int, rows, det: LaurentPoly, lu: tuple) -> bool:
    """Does L*U reproduce the leading order x order block of the Hankel
    matrix ``rows`` entrywise, with ``det``, that block's determinant,
    equal to the product of the diagonals?

    ``lu`` is ``lu_product`` of the family of ``rows`` at that order or
    larger; only leading blocks are compared."""
    product, diagonal = lu
    return (tuple(row[:order] for row in product[:order])
            == tuple(row[:order] for row in rows[:order])
            and det == diagonal[order - 1])


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
