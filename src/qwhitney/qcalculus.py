"""q-difference operator and the explicit (Newton interpolation) route.

The operator of order k with step h and base q^b is the product
prod_{j=0}^{k-1} (E_h - q^(bj)), E_h the shift f(x) -> f(x+h).  Applied to
f(x) = [x+c]_q^n at integer x everything stays inside the Laurent ring.

The operator is computed two ways.  q_diff_heads applies the factors one
at a time to the values f(x), f(x+h), ..., f(x+kh) and keeps the head after
each pass, so one pass gives every order up to k; q_diff_explicit expands
the product into the alternating q-binomial sum.  The explicit formula for
W (and the numerators of the EGF in ``series``) takes the alternating sum
and the Newton coefficients take the operator product, so a fault in one
form cannot hide in both routes.

The two routes share only the values of f.  RouteValues holds what they
need for one (m, r): the power table [jm+r]_q^n (each n one sliding-window
product per node from the n-1 values), the q-Pascal rows [k j]_{q^m} and
the normalizers; a suite builds it once and hands it to every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import (LaurentPoly, ONE, laurent_exact_div,
                    q_binomial_alternating_sum, q_binomial_row,
                    q_factorial_base, q_int)
from .whitney import WhitneyParams


@dataclass(frozen=True)
class QPowerFunction:
    """f(x) = [x + offset]_q ** power, evaluated at integer x only."""

    offset: int
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("power must be >= 0")

    def evaluate(self, x: int) -> LaurentPoly:
        return q_int(x + self.offset) ** self.power


class QPowerValues:
    """f(x) = [x + offset]_q ** power, tabulated at x = 0, step, 2 step, ...

    ``values[i]`` is f(i * step); evaluate reads the table and refuses any
    other x.  Rows of q_power_table.  (A plain class, not a dataclass, to
    keep the import cheap.)
    """

    __slots__ = ("offset", "power", "step", "values")

    def __init__(self, offset: int, power: int, step: int, values: tuple):
        self.offset, self.power, self.step = offset, power, step
        self.values = values

    def evaluate(self, x: int) -> LaurentPoly:
        i, rest = divmod(x, self.step)
        if rest or not 0 <= i < len(self.values):
            raise ValueError(f"{x} is not a tabulated node")
        return self.values[i]


def q_power_table(offset: int, step: int, count: int, nmax: int) -> list:
    """The QPowerValues of [x + offset]_q ** n at the count nodes
    x = 0, step, ..., (count-1) step, for n = 0..nmax.

    Row n is row n-1 times [x + offset]_q node by node: a sliding-window
    product, never a power.
    """
    bases = [q_int(i * step + offset) for i in range(count)]
    values = (ONE,) * count
    table = [QPowerValues(offset, 0, step, values)]
    for n in range(1, nmax + 1):
        values = tuple(v * a for v, a in zip(values, bases))
        table.append(QPowerValues(offset, n, step, values))
    return table


def q_diff_heads(f, qbase_exp: int, h: int, k: int, x: int) -> list:
    """The q-differences of orders 0..k of f at x via the operator product.

    Starts from the values f(x), f(x+h), ..., f(x+kh) and applies one factor
    (E_h - q^(bj)) per j = 0..k-1 (the factors commute), each pass turning
    the list g into g(x+h) - q^(bj) g(x) one entry shorter; the head of the
    list after j passes is the order-j difference at x.  O(k^2)
    subtractions and k+1 evaluations of f in all.
    """
    if k < 0:
        raise ValueError("operator order must be >= 0")
    vals = [f.evaluate(x + i * h) for i in range(k + 1)]
    heads = [vals[0]]
    for j in range(k):
        vals = [upper - lower.shift(qbase_exp * j)
                for lower, upper in zip(vals, vals[1:])]
        heads.append(vals[0])
    return heads


def q_diff_recursive(f, qbase_exp: int, h: int, k: int,
                     x: int) -> LaurentPoly:
    """Order-k q-difference of f at x via the operator product itself: the
    last head of q_diff_heads."""
    return q_diff_heads(f, qbase_exp, h, k, x)[k]


def q_diff_explicit(f, qbase_exp: int, h: int, k: int, x: int,
                    row: list = None) -> LaurentPoly:
    """Order-k q-difference of f at x via the alternating binomial sum

        sum_{j=0}^{k} (-1)^(k-j) q^(b C(k-j,2)) [k j]_{q^b} f(x+jh).

    ``row`` is q_binomial_row(k, b); it is built here when not given.
    """
    if k < 0:
        raise ValueError("operator order must be >= 0")
    return q_binomial_alternating_sum([f.evaluate(x + j * h)
                                       for j in range(k + 1)], qbase_exp, row)


def normalizer(params: WhitneyParams, k: int) -> LaurentPoly:
    """[k]_{q^m}! * [m]_q^k, the exact divisor of the k-th difference."""
    return q_factorial_base(k, params.m) * q_int(params.m) ** k


class RouteValues:
    """What the explicit, Newton and EGF routes share for one (m, r):

    - ``powers[n]`` is f = [x+r]_q^n tabulated at x = 0, m, ..., kmax*m,
      for n = 0..nmax;
    - ``rows[k]`` is the q-Pascal row q_binomial_row(k, m), k = 0..kmax;
    - ``norms[k]`` is normalizer(params, k), k = 0..kmax.
    """

    __slots__ = ("params", "powers", "rows", "norms")

    def __init__(self, params: WhitneyParams, powers: list, rows: list,
                 norms: list):
        self.params, self.powers, self.rows, self.norms = (params, powers,
                                                           rows, norms)

    @classmethod
    def build(cls, params: WhitneyParams, nmax: int,
              kmax: int = None) -> "RouteValues":
        """Everything rows n <= nmax and columns k <= kmax (default nmax)
        of the routes read."""
        kmax = nmax if kmax is None else kmax
        m, r = params.m, params.r
        return cls(params, q_power_table(r, m, kmax + 1, nmax),
                   [q_binomial_row(k, m) for k in range(kmax + 1)],
                   [normalizer(params, k) for k in range(kmax + 1)])


def whitney_numerator(params: WhitneyParams, n: int, k: int,
                      shared: RouteValues = None) -> LaurentPoly:
    """The alternating sum

        sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} [jm+r]_q^n,

    which is q_diff_explicit of [x+r]_q^n at x = 0 with step and base m.
    ``shared`` covers row n and column k; built here when not given.
    """
    if shared is None:
        shared = RouteValues.build(params, n, k)
    return q_diff_explicit(shared.powers[n], params.m, params.m, k, 0,
                           shared.rows[k])


def whitney_explicit(params: WhitneyParams, n: int, k: int,
                     shared: RouteValues = None) -> LaurentPoly:
    """W_{m,r}[n,k]_q from the explicit formula

        whitney_numerator(params, n, k) / ([k]_{q^m}! [m]_q^k).

    The division is exact; a NonExactDivision here is a bug, not bad input.
    """
    if not 0 <= k <= n:
        raise ValueError("whitney_explicit requires 0 <= k <= n")
    if shared is None:
        shared = RouteValues.build(params, n, k)
    return laurent_exact_div(whitney_numerator(params, n, k, shared),
                             shared.norms[k])


def newton_coefficients(params: WhitneyParams, n: int, kmax: int = None,
                        shared: RouteValues = None) -> list:
    """Interpolation coefficients of f_q(x) = [x+r]_q^n on nodes 0, m, 2m, ...

    The k-th coefficient is D^k_{q^m,m} f_q(0) / ([k]_{q^m}! [m]_q^k) and
    equals W_{m,r}[n,k]_q; this route reads every D^k f_q(0), k <= kmax,
    from one pass of the operator product (q_diff_heads), not from the
    alternating sum of whitney_explicit.
    """
    if kmax is None:
        kmax = n
    if kmax > n:
        raise ValueError("kmax must be <= n")
    if shared is None:
        shared = RouteValues.build(params, n, kmax)
    heads = q_diff_heads(shared.powers[n], params.m, params.m, kmax, 0)
    return [laurent_exact_div(d, norm) for d, norm in zip(heads, shared.norms)]
