"""Hankel matrices of normalized values, exact determinants, and the
LU-factorization / Hankel-transform identities.

The determinant det(W*[s+i+j, s+j])_{0<=i,j<=n} factors as
prod_{k=0}^{n} [m(s+k)+r]_q^k.  A matrix is a tuple of row tuples.  One
fraction-free elimination loop, ``bareiss``, computes both this
determinant over the Laurent ring and its q=1 corollary over the ints; it
keeps every interior division exact.  Its pivots are the leading minors
(Sylvester's identity), so one elimination of the largest matrix of a
family gives the determinant of every smaller order (``leading_minors``),
in either ring.  Each check of a family returns one verdict per order:
``lu_check`` from one L*U product, ``classical_hankel_check`` from one
integer elimination of the family matrix's q=1 image.
``hankel_closed_forms`` gives every order's closed form, with the list of
a whose [a]_q multiply to it, from one prefix product.

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
from .whitney import WhitneyParams, row_degree, w_star


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


def leading_minors(rows, exact_div) -> list:
    """The determinants of the leading blocks of orders 1..len(rows) of a
    square matrix, from one ``bareiss`` pass with ``exact_div``: each is a
    pivot.  Each order past the first zero pivot is eliminated on its own
    block."""
    _, minors = bareiss(rows, exact_div)
    return minors + [bareiss(tuple(row[:k] for row in rows[:k]), exact_div)[0]
                     for k in range(len(minors) + 1, len(rows) + 1)]


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
    nothing."""
    factor_lists = {closed: factors
                    for closed, factors in closed_forms[:len(rows) - 1]
                    if _divides_to_one(closed, factors)}

    def divide(x: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        factors = factor_lists.get(b)
        if factors is None:
            return laurent_exact_div(x, b)
        return laurent_div_q_ints(x, factors)

    return leading_minors(rows, divide)


def hankel_closed_forms(spec: HankelSpec) -> list:
    """``(closed form, factors)`` for each order n'+1, n' = 0..spec.n, of
    spec's family: factors lists the a, each m(s+k)+r repeated k times for
    k = 0..n', whose [a]_q multiply to the closed form
    prod_{k<=n'} [m(s+k)+r]_q^k, one sliding-window product per
    q-integer."""
    m, r, s = spec.params.m, spec.params.r, spec.s
    forms, product, factors = [], ONE, ()
    for k in range(spec.n + 1):
        a = m * (s + k) + r
        for _ in range(k):
            product = product * q_int(a)
        factors += (a,) * k
        forms.append((product, factors))
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


def lu_check(spec: HankelSpec, rows, dets) -> list:
    """ok[n], n = 0..spec.n: does L*U, for ``lu_factors(spec)``, reproduce
    the leading (n+1)-block of the Hankel matrix ``rows``, with dets[n],
    that block's determinant, equal to prod_{i<=n} L[i][i] U[i][i]?  L and
    U are triangular, so one L*U product serves every order; entry (i, j)
    is one ``poly_sum`` over k <= min(i, j), the nonzero halves."""
    lower, upper = lu_factors(spec)
    size = range(spec.n + 1)
    product = tuple(tuple(poly_sum(lower[i][k] * upper[k][j]
                                   for k in range(min(i, j) + 1))
                          for j in size) for i in size)
    ok, same, diagonal = [], True, ONE
    for n in size:  # block n+1 adds row n and column n to block n
        same = same and all(product[n][j] == rows[n][j]
                            and product[j][n] == rows[j][n]
                            for j in range(n + 1))
        diagonal = diagonal * lower[n][n] * upper[n][n]
        ok.append(same and dets[n] == diagonal)
    return ok


def classical_hankel_check(spec: HankelSpec, rows) -> list:
    """ok[n], n = 0..spec.n: the q=1 corollary det(W_{m,r}(s+i+j, s+j)) =
    prod_{k<=n} (m(s+k)+r)^k at order n+1.

    ``rows`` is ``hankel_matrix(spec)``.  W* and W differ by a power of q,
    so the q=1 image of an entry is the sum of its coefficients; one
    integer elimination of that image gives every order's determinant."""
    m, r, s = spec.params.m, spec.params.r, spec.s
    ints = [[sum(x.coeffs) for x in row] for row in rows]
    ok, expected = [], 1
    for k, det in enumerate(leading_minors(ints, floordiv)):
        expected *= (m * (s + k) + r) ** k
        ok.append(det == expected)
    return ok
