"""q-difference operator and the explicit (Newton interpolation) route.

The operator of order k with step h and base q^b is the product
prod_{j=0}^{k-1} (E_h - q^(bj)), E_h the shift f(x) -> f(x+h).  It reads
f only at the k+1 nodes x, x+h, ..., x+kh, so both of its forms take that
list of values.  For f(x) = [x+r]_q^n at x = 0 with h = b = m every value
stays inside the Laurent ring.

The operator is computed two ways.  q_diff_heads applies the factors one
at a time to the values and keeps the head after each pass, so one pass
gives every order up to k; qcore.q_binomial_alternating_sum expands the
product into the alternating q-binomial sum.  The explicit formula for W
takes the alternating sum and the Newton coefficients take the operator
product, so a fault in one form cannot hide in both routes.

The two routes share only the values of f.  RouteValues holds what they
need for one (m, r): the power table [jm+r]_q^n (each n one sliding-window
product per node from the n-1 values), the q-Pascal rows [k j]_{q^m}, k =
0..kmax, of one triangle built by additions (``qcore.q_binomial_rows``, no
product and no division), and the normalizers [k]_{q^m}! [m]_q^k =
prod_{j<=k} [jm]_q, each one q-integer product from the last; a suite
builds it once and hands it to every cell, and the routes read m and r
from it alone.  Each route is its numerator (``explicit_numerator``,
``newton_heads``) over the normalizer (``whitney_explicit``,
``newton_coefficients``), divided one q-integer [jm]_q at a time, one
linear pass each (``normalized``).  The explicit suite divides nothing on
a passing cell: it compares the numerators with W times ``norms[k]``, and
calls ``normalized`` only for the side texts of a failed cell.
"""

from __future__ import annotations

from .qcore import (LaurentPoly, ONE, laurent_div_q_ints,
                    q_binomial_alternating_sum, q_binomial_rows, q_int)
from .whitney import WhitneyParams, normalizer_factors


def q_power_table(offset: int, step: int, count: int, nmax: int) -> list:
    """The values of [x + offset]_q ** n at the count nodes
    x = 0, step, ..., (count-1) step, one tuple per n = 0..nmax.

    Row n is row n-1 times [x + offset]_q node by node: a sliding-window
    product, never a power.
    """
    bases = [q_int(i * step + offset) for i in range(count)]
    values = (ONE,) * count
    table = [values]
    for _ in range(nmax):
        values = tuple(v * a for v, a in zip(values, bases))
        table.append(values)
    return table


def q_diff_heads(values, qbase_exp: int) -> list:
    """The q-differences of orders 0..k at x via the operator product, from
    the k+1 values f(x), f(x+h), ..., f(x+kh).

    Applies one factor (E_h - q^(bj)) per j = 0..k-1 (the factors commute),
    each pass turning the list g into g(x+h) - q^(bj) g(x) one entry
    shorter; the head of the list after j passes is the order-j difference
    at x.  O(k^2) subtractions in all.
    """
    if not values:
        raise ValueError("operator order must be >= 0")
    heads = [values[0]]
    for j in range(len(values) - 1):
        values = [upper - lower.shift(qbase_exp * j)
                  for lower, upper in zip(values, values[1:])]
        heads.append(values[0])
    return heads


class RouteValues:
    """What the explicit and Newton routes share for one (m, r):

    - ``powers[n]`` holds the values of [x+r]_q^n at x = 0, m, ..., kmax*m,
      for n = 0..nmax;
    - ``rows[k]`` is the q-Pascal row [k j]_{q^m}, j = 0..k, for k =
      0..kmax: the triangle ``q_binomial_rows(kmax, m)``;
    - ``norms[k]`` is the normalizer [k]_{q^m}! [m]_q^k = prod_{j<=k}
      [jm]_q, k = 0..kmax, each one q-integer product from the last.
    """

    __slots__ = ("params", "powers", "rows", "norms")

    def __init__(self, params: WhitneyParams, powers: list, rows: list,
                 norms: list):
        self.params, self.powers, self.rows = params, powers, rows
        self.norms = norms

    @classmethod
    def build(cls, params: WhitneyParams, nmax: int,
              kmax: int) -> "RouteValues":
        """Everything rows n <= nmax and columns k <= kmax of the routes
        read."""
        m, r = params.m, params.r
        norms = [ONE]
        for a in normalizer_factors(params, kmax):
            norms.append(norms[-1] * q_int(a))
        return cls(params, q_power_table(r, m, kmax + 1, nmax),
                   q_binomial_rows(kmax, m), norms)


def explicit_numerator(shared: RouteValues, n: int, k: int) -> LaurentPoly:
    """The explicit formula's numerator for W_{m,r}[n,k]_q: the alternating
    sum sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} [jm+r]_q^n, for the
    (m, r) of ``shared``, which covers row n and column k."""
    if not 0 <= k <= n:
        raise ValueError("the explicit formula requires 0 <= k <= n")
    return q_binomial_alternating_sum(shared.powers[n][:k + 1],
                                      shared.params.m, shared.rows[k])


def newton_heads(shared: RouteValues, n: int) -> list:
    """D^k_{q^m,m} f_q(0) for f_q(x) = [x+r]_q^n and k = 0..n, from one
    pass of the operator product (q_diff_heads), for the (m, r) of
    ``shared``, which covers row n and columns k <= n."""
    return q_diff_heads(shared.powers[n][:n + 1], shared.params.m)


def normalized(shared: RouteValues, x: LaurentPoly, k: int) -> LaurentPoly:
    """x over the normalizer of column k, divided one q-integer [jm]_q at
    a time.  Raises NonExactDivision when that leaves a remainder."""
    return laurent_div_q_ints(x, normalizer_factors(shared.params, k))


def whitney_explicit(shared: RouteValues, n: int, k: int) -> LaurentPoly:
    """W_{m,r}[n,k]_q from the explicit formula: ``explicit_numerator``
    over [k]_{q^m}! [m]_q^k.  The division is exact; a NonExactDivision
    here is a bug, not bad input.
    """
    return normalized(shared, explicit_numerator(shared, n, k), k)


def newton_coefficients(shared: RouteValues, n: int) -> list:
    """Interpolation coefficients of f_q(x) = [x+r]_q^n on nodes 0, m, 2m, ...
    for the (m, r) of ``shared``, which covers row n and columns k <= n.

    The k-th coefficient is D^k_{q^m,m} f_q(0) / ([k]_{q^m}! [m]_q^k) and
    equals W_{m,r}[n,k]_q; this route reads every D^k f_q(0), k <= n, from
    ``newton_heads``, not from the alternating sum of the explicit route.
    """
    return [normalized(shared, d, k)
            for k, d in enumerate(newton_heads(shared, n))]
