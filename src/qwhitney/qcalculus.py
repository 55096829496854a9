"""q-difference operator and the explicit (Newton interpolation) route.

The operator of order k with step h and base q^b is the product
prod_{j=0}^{k-1} (E_h - q^(bj)), E_h the shift f(x) -> f(x+h).  Applied to
f(x) = [x+c]_q^n at integer x everything stays inside the Laurent ring.

The operator is computed two ways.  q_diff_recursive applies the factors
one at a time to the values f(x), f(x+h), ..., f(x+kh); q_diff_explicit
expands the product into the alternating q-binomial sum.  The explicit
formula for W (and the numerators of the EGF in ``series``) takes the
alternating sum and the Newton coefficients take the operator product, so
a fault in one form cannot hide in both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .qcore import (LaurentPoly, ZERO, laurent_exact_div, q_binomial,
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


def q_diff_recursive(f: QPowerFunction, qbase_exp: int, h: int, k: int,
                     x: int) -> LaurentPoly:
    """Order-k q-difference of f at x via the operator product itself.

    Starts from the values f(x), f(x+h), ..., f(x+kh) and applies one factor
    (E_h - q^(bj)) per j = 0..k-1 (the factors commute), each pass turning
    the list g into g(x+h) - q^(bj) g(x) one entry shorter: O(k^2)
    subtractions and k+1 evaluations of f.
    """
    if k < 0:
        raise ValueError("operator order must be >= 0")
    vals = [f.evaluate(x + i * h) for i in range(k + 1)]
    for j in range(k):
        vals = [upper - lower.shift(qbase_exp * j)
                for lower, upper in zip(vals, vals[1:])]
    return vals[0]


def q_diff_explicit(f: QPowerFunction, qbase_exp: int, h: int, k: int,
                    x: int) -> LaurentPoly:
    """Order-k q-difference of f at x via the alternating binomial sum

        sum_{j=0}^{k} (-1)^(k-j) q^(b C(k-j,2)) [k j]_{q^b} f(x+jh).
    """
    if k < 0:
        raise ValueError("operator order must be >= 0")
    acc = ZERO
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        term = q_binomial(k, j, qbase_exp).shift(qbase_exp * comb(k - j, 2))
        acc = acc + term * f.evaluate(x + j * h) * sign
    return acc


def normalizer(params: WhitneyParams, k: int) -> LaurentPoly:
    """[k]_{q^m}! * [m]_q^k, the exact divisor of the k-th difference."""
    return q_factorial_base(k, params.m) * q_int(params.m) ** k


def whitney_numerator(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """The alternating sum

        sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} [jm+r]_q^n,

    which is q_diff_explicit of [x+r]_q^n at x = 0 with step and base m."""
    return q_diff_explicit(QPowerFunction(params.r, n), params.m, params.m,
                           k, 0)


def whitney_explicit(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """W_{m,r}[n,k]_q from the explicit formula

        whitney_numerator(params, n, k) / ([k]_{q^m}! [m]_q^k).

    The division is exact; a NonExactDivision here is a bug, not bad input.
    """
    if not 0 <= k <= n:
        raise ValueError("whitney_explicit requires 0 <= k <= n")
    return laurent_exact_div(whitney_numerator(params, n, k),
                             normalizer(params, k))


def newton_coefficients(params: WhitneyParams, n: int, kmax: int = None) -> list:
    """Interpolation coefficients of f_q(x) = [x+r]_q^n on nodes 0, m, 2m, ...

    The k-th coefficient is D^k_{q^m,m} f_q(0) / ([k]_{q^m}! [m]_q^k) and
    equals W_{m,r}[n,k]_q; this route goes through the operator product
    q_diff_recursive, not the alternating sum of whitney_explicit.
    """
    if kmax is None:
        kmax = n
    if kmax > n:
        raise ValueError("kmax must be <= n")
    f = QPowerFunction(params.r, n)
    return [laurent_exact_div(q_diff_recursive(f, params.m, params.m, k, 0),
                              normalizer(params, k))
            for k in range(kmax + 1)]
