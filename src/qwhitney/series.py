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
(``rational_gf_columns``).  The EGF numerators read their parameters,
powers and q-Pascal rows from the shared qcalculus.RouteValues.

The horizontal generating function is checked in integers: at q = a/b a
row of values, the falling factors and [t]_q^n each become integer
numerators over one denominator (``LaurentPoly.value_parts``), and the
identity is compared cross-multiplied, with no Fraction per cell.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul

from .qcalculus import RouteValues, whitney_numerator
from .qcore import LaurentPoly, ONE, ZERO, q_int
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
    """The column generating functions

        q^(m C(k,2) + kr) z^k / prod_{j=0}^{k} (1 - [mj+r]_q z),

    whose z^n coefficient is W_{m,r}[n,k]_q, for n = 0..N and k = 0..kmax,
    from one pass.

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


def egf(shared: RouteValues, k: int, N: int) -> tuple:
    """Numerators N_0..N_N of the column EGF

        sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} e_q([jm+r]_q z)
        / ([k]_{q^m}! [m]_q^k),   e_q(a z) = sum_n a^n z^n / [n]_q!,

    for the (m, r) of ``shared`` (qcalculus.RouteValues covering rows
    n <= N and column k).  Its z^n coefficient is
    N_n / ([n]_q! [k]_{q^m}! [m]_q^k), which equals W_{m,r}[n,k]_q / [n]_q!;
    N_n is qcalculus.whitney_numerator(shared, n, k).
    """
    if k > N:
        raise ValueError("k must be <= truncation order")
    return tuple(whitney_numerator(shared, n, k) for n in range(N + 1))


def horizontal_row(params: WhitneyParams, n: int, qval: Fraction) -> tuple:
    """The values W[n,k]_q at q = qval for k = 0..n, as integer numerators
    over one denominator: ``(nums, den)`` with W[n,k]_q = nums[k] / den.

    With q = a/b, W[n,k] has exponents 0 <= lo..hi, so its value is
    N a^lo / b^hi and den, the lcm of the entries' denominators, is b^H
    for the row's top degree H.
    """
    a, b = qval.numerator, qval.denominator
    parts = [w(params, n, k).value_parts(a, b) for k in range(n + 1)]
    den = lcm(*(d for _, d in parts))
    return [num * (den // d) for num, d in parts], den


def horizontal_falling(params: WhitneyParams, t: int, qval: Fraction,
                       kmax: int) -> tuple:
    """The falling factors [t-r|m]_{k,q} = prod_{j<k} [t-r-jm]_q at q = qval
    for k = 0..kmax, which do not depend on n, as integer numerators over
    one denominator: ``(nums, den)`` with [t-r|m]_{k,q} = nums[k] / den.

    den is the denominator a^A b^B of the last product; a factor [0]_q
    makes every later numerator 0.
    """
    a, b = qval.numerator, qval.denominator
    m, r = params.m, params.r
    factors = [q_int(t - r - j * m).value_parts(a, b) for j in range(kmax)]
    # nums[k] = (prod_{j<k} num_j) (prod_{j>=k} den_j)
    nums = [1] * (kmax + 1)
    for k in range(kmax - 1, -1, -1):
        nums[k] = nums[k + 1] * factors[k][1]
    den, head = nums[0], 1
    for k, (num, _) in enumerate(factors, 1):
        head *= num
        nums[k] *= head
    return nums, den


def horizontal_powers(t: int, qval: Fraction, nmax: int) -> list:
    """[t]_q^n at q = qval for n = 0..nmax as integer pairs: the n-th
    powers of the two parts ``LaurentPoly.value_parts`` gives for [t]_q."""
    tnum, tden = q_int(t).value_parts(qval.numerator, qval.denominator)
    return [(tnum ** n, tden ** n) for n in range(nmax + 1)]


def horizontal_gf_check(row: tuple, falling: tuple, power: tuple) -> bool:
    """Does sum_k W[n,k]_q [t-r|m]_{k,q} = [t]_q^n hold at q = qval?

    ``row`` is ``horizontal_row(params, n, qval)``, ``falling`` is
    ``horizontal_falling(params, t, qval, kmax)`` for some kmax >= n, and
    ``power`` is entry n of ``horizontal_powers(t, qval, nmax)``.  Checked
    in integers: with W[n,k] = nums_k / D, the falling factors fnums_k / F
    and [t]_q^n = P / E, the identity times the nonzero D F E reads
    sum_k nums_k fnums_k E = P D F.  The falling factors may involve
    q-integers of negative arguments.
    """
    (nums, den), (fnums, fden), (pnum, pden) = row, falling, power
    return sum(map(mul, nums, fnums)) * pden == pnum * den * fden
