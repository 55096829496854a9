"""The q-difference operator of the explicit formula, in both of its forms.

The operator of order k with step h and base q^b is the product
prod_{j=0}^{k-1} (E_h - q^(bj)), E_h the shift f(x) -> f(x+h).  It reads
f only at the k+1 nodes x, x+h, ..., x+kh, so both of its forms take that
list of values.  For f(x) = [x+r]_q^n at x = 0 with h = b = m every value
stays inside the Laurent ring, and the order-k value over the normalizer
[k]_{q^m}! [m]_q^k is W_{m,r}[n,k]_q.

Both forms work on integers at one point q = X = 2^B, B = ``bits``: each
value and Gaussian binomial is a polynomial at that point, and a power
q^e is a shift left by B e bits.  A caller that sets B from
``alternating_bound``, the one bound of the explicit, Newton and EGF
cells, compares the results exactly as integers, and reads one back as a
polynomial by ``qcore.unpack_at_point``.

The operator is computed two ways.  ``q_diff_heads`` applies the factors
one at a time to the values and keeps the head after each pass, so one
pass gives every order up to k: the Newton route.
``q_binomial_terms`` expands the product into the terms of the
alternating q-binomial sum over a q-Pascal row, which ``q_binomial_row``
builds at the point from the row above by shifted additions; their total
is the explicit route and the q-binomial inversion.  For
f(x) = [x+r]_q^n term j is a multiple of [jm+r]_q^n, so the caller rolls
it to the next n by one q-integer product at the point
(``qcore.mul_q_int_at_point``), as it rolls the values.  The two forms
share only the values of f, so a fault in one cannot hide in both.
"""

from __future__ import annotations

from math import comb, prod

from .whitney import normalizer_factors


def q_diff_heads(values, b: int, bits: int) -> list:
    """The q-differences of orders 0..k at x via the operator product, from
    the k+1 values f(x), f(x+h), ..., f(x+kh) as integers at q = 2^bits.

    Applies one factor (E_h - q^(bj)) per j = 0..k-1 (the factors commute),
    each pass turning the list g into g(x+h) - q^(bj) g(x) one entry
    shorter, q^(bj) a shift by bits*b*j; the head of the list after j
    passes is the order-j difference at x.  O(k^2) subtractions in all.
    """
    if not values:
        raise ValueError("operator order must be >= 0")
    heads = [values[0]]
    for j in range(len(values) - 1):
        shift = bits * b * j
        values = [upper - (lower << shift)
                  for lower, upper in zip(values, values[1:])]
        heads.append(values[0])
    return heads


def q_binomial_terms(values, b: int, row, bits: int) -> list:
    """The terms (-1)^(k-j) q^(b C(k-j,2)) [k j]_{q^b} values[j],
    j = 0..k, at q = 2^bits, where k = len(values) - 1 and ``row`` is row
    k of ``q_binomial_row``, values and row as integers at that point.

    With values[j] = f(x + jh) their sum is the expanded q-difference
    operator of order k at x; it is also the q-binomial inversion.  Each
    term is one integer product.
    """
    k = len(values) - 1
    terms = []
    for j, (binom, value) in enumerate(zip(row, values)):
        term = (binom << bits * b * comb(k - j, 2)) * value
        terms.append(-term if (k - j) % 2 else term)
    return terms


def q_binomial_row(above, b: int, bits: int) -> list:
    """Row k of the q-Pascal triangle in base q^b, [k j]_{q^b} for
    j = 0..k, as integers at q = 2^bits, from row k-1 ``above`` ([] gives
    row 0): [k j] = [k-1 j-1] + q^(bj) [k-1 j], one shifted addition per
    inner entry and no product."""
    if not above:
        return [1]
    return [1, *(left + (right << bits * b * j)
                 for j, (left, right) in enumerate(zip(above, above[1:]), 1)),
            1]


def alternating_bound(params, column, k: int) -> int:
    """A bound on every coefficient of the alternating sum and Newton head
    of order k over the values [jm+r]_q^n, n <= N = len(column) - 1, of
    W[n,k] = column[n] times the normalizer, and of their differences,
    whatever signs or powers of q a route gives: sum_{j<=k} C(k,j)
    max(jm+r, 1)^N, term j's L1 norm at n = N (an operator pass at most
    adds two neighbours' L1 norms), plus P_k max_n L1(column[n]), P_k =
    k! m^k the normalizer's L1 norm.  max(., 1) keeps [0]_q^0 = 1.  W and,
    in a column that holds a nonzero W, the normalizer are within it too.
    """
    m, r = params
    return (sum(comb(k, j) * max(j * m + r, 1) ** (len(column) - 1)
                for j in range(k + 1))
            + prod(normalizer_factors(params, k))
            * max(sum(map(abs, v.coeffs)) for v in column))
