"""Column generating functions as truncated power series in z, and the
horizontal generating function checked at exact rational q.

The paper-facing generating functions are written in powers of [t]_q; here
that quantity is treated as the formal variable z, so every identity becomes
a statement about truncated series coefficients.  A series truncated at
order N is the tuple of its N+1 coefficients, each a LaurentPoly: the
column generating function needs no denominators, and the EGF is given by
its numerators over a known common denominator.

The column generating functions of one (m, r) are built by prefix: column
k's denominator product is column k-1's times one more geometric series
(``rational_gf_columns``).  The EGF numerators read their powers and
q-Pascal rows from the shared qcalculus.RouteValues.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .qcalculus import RouteValues, whitney_numerator
from .qcore import LaurentPoly, ONE, ZERO, eval_q, q_int
from .whitney import WhitneyParams, w


def _series_mul(a: tuple, b: tuple) -> tuple:
    """The product of two series truncated at the same order."""
    return tuple(sum((a[i] * b[n - i] for i in range(n + 1)), ZERO)
                 for n in range(len(a)))


def geometric(a: LaurentPoly, order: int) -> tuple:
    """1/(1 - a z) = sum_n a^n z^n."""
    coeffs = [ONE]
    for _ in range(order):
        coeffs.append(coeffs[-1] * a)
    return tuple(coeffs)


def rational_gf_columns(params: WhitneyParams, kmax: int, N: int) -> list:
    """rational_gf(params, k, N) for k = 0..kmax, from one pass.

    Column k's product prod_{j<=k} 1/(1 - [mj+r]_q z) is column k-1's
    times geometric([mk+r]_q), a truncated series product.  Column k keeps
    only its z^0..z^(N-k) coefficients, so the product is carried to that
    order only.
    """
    if not 0 <= kmax <= N:
        raise ValueError("k must be in 0..truncation order")
    m, r = params.m, params.r
    columns = []
    s = (ONE,) + (ZERO,) * N
    for k in range(kmax + 1):
        s = _series_mul(s[:N + 1 - k], geometric(q_int(m * k + r), N - k))
        shift = m * comb(k, 2) + k * r
        columns.append((ZERO,) * k + tuple(c.shift(shift) for c in s))
    return columns


def rational_gf(params: WhitneyParams, k: int, N: int) -> tuple:
    """The column generating function

        q^(m C(k,2) + kr) z^k / prod_{j=0}^{k} (1 - [mj+r]_q z),

    whose z^n coefficient is W_{m,r}[n,k]_q, for n = 0..N: the last column
    of rational_gf_columns(params, k, N).
    """
    return rational_gf_columns(params, k, N)[k]


def egf(params: WhitneyParams, k: int, N: int,
        shared: RouteValues = None) -> tuple:
    """Numerators N_0..N_N of the column EGF

        sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} e_q([jm+r]_q z)
        / ([k]_{q^m}! [m]_q^k),   e_q(a z) = sum_n a^n z^n / [n]_q!.

    Its z^n coefficient is N_n / ([n]_q! [k]_{q^m}! [m]_q^k), which equals
    W_{m,r}[n,k]_q / [n]_q!; N_n is qcalculus.whitney_numerator(params, n, k).
    ``shared`` (qcalculus.RouteValues covering rows n <= N and column k)
    gives every numerator its powers and q-Pascal row; built here when not
    given.
    """
    if k > N:
        raise ValueError("k must be <= truncation order")
    if shared is None:
        shared = RouteValues.build(params, N, k)
    return tuple(whitney_numerator(params, n, k, shared) for n in range(N + 1))


def horizontal_row(params: WhitneyParams, n: int, qval: Fraction) -> list:
    """The values W[n,k]_q at q = qval for k = 0..n."""
    qval = Fraction(qval)
    return [w(params, n, k).eval(qval) for k in range(n + 1)]


def horizontal_falling(params: WhitneyParams, t: int, qval: Fraction,
                       kmax: int) -> list:
    """The falling factors [t-r|m]_{k,q} = prod_{j<k} [t-r-jm]_q at q = qval
    for k = 0..kmax; they do not depend on n."""
    qval = Fraction(qval)
    m, r = params.m, params.r
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(out[-1] * eval_q(q_int(t - r - (k - 1) * m), qval))
    return out


def horizontal_gf_check(params: WhitneyParams, n: int, t: int,
                        qval: Fraction, row: list = None,
                        falling: list = None) -> bool:
    """Does sum_k W[n,k]_q [t-r|m]_{k,q} = [t]_q^n hold at q = qval?

    Checked as exact rationals; the falling factors may involve q-integers
    of negative arguments.  ``row`` is ``horizontal_row(params, n, qval)``
    and ``falling`` is ``horizontal_falling(params, t, qval, kmax)`` for
    some kmax >= n; each is computed here when not given, and a caller
    checking many (n, t) at one q passes them in so each is evaluated once.
    """
    qval = Fraction(qval)
    if row is None:
        row = horizontal_row(params, n, qval)
    if falling is None:
        falling = horizontal_falling(params, t, qval, n)
    lhs = sum((row[k] * falling[k] for k in range(n + 1)), Fraction(0))
    rhs = eval_q(q_int(t), qval) ** n
    return lhs == rhs
