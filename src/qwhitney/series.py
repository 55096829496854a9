"""Column generating functions as truncated power series in z, and the
horizontal generating function checked at exact rational q.

The paper-facing generating functions are written in powers of [t]_q; here
that quantity is treated as the formal variable z, so every identity becomes
a statement about truncated series coefficients.  A series truncated at
order N is the tuple of its N+1 coefficients, each a LaurentPoly: the
column generating function needs no denominators.

The column generating functions of one (m, r) are built by prefix from
``symm.h_prefixes`` (``rational_gf_columns``): column k's denominator
product is column k-1's times 1/(1 - [mk+r]_q z), and its row of the h
triangle holds exactly the N+1-k coefficients column k needs.  The
column EGF is checked in integers at one point q = 2^B (``egf_check``),
B set by ``qcalculus.alternating_bound``.

The horizontal generating function is checked in integers: at q = a/b a
row of values and [t]_q^n each become integer numerators over one
denominator (``LaurentPoly.value_parts``), the falling factors are summed
by Horner's rule from a table of [x]_q as integer pairs, one per q, and
the identity is compared cross-multiplied, with no Fraction per cell and
every integer sized by the cell's own row.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .qcalculus import alternating_bound
from .qcore import ZERO, mul_q_int_at_point, pack_at_point, q_int
from .symm import h_prefixes, whitney_values
from .whitney import WhitneyParams, normalizer_factors, row_degree


def rational_gf_columns(params: WhitneyParams, kmax: int, N: int) -> list:
    """The column generating functions

        q^(m C(k,2) + kr) z^k / prod_{j=0}^{k} (1 - [mj+r]_q z),

    whose z^n coefficient is W_{m,r}[n,k]_q, for n = 0..N and k = 0..kmax.
    Column k is row k of symm.h_prefixes over symm.whitney_values, which
    stops at z^(N-k), shifted by q^(m C(k,2) + kr) and preceded by k zeros.
    """
    if not 0 <= kmax <= N:
        raise ValueError("k must be in 0..truncation order")
    m, r = params.m, params.r
    prefixes = h_prefixes(whitney_values(params, kmax), N)
    return [(ZERO,) * k + tuple(c.shift(row_degree(m, r, k)) for c in h)
            for k, h in enumerate(prefixes)]


def egf_check(params: WhitneyParams, rows, kmax: int) -> list:
    """ok[k][n], k <= kmax, n <= nmax: does the z^n numerator of the
    column EGF, sum_j (-1)^(k-j) q^(m C(k-j,2)) [k j]_{q^m} [jm+r]_q^n,
    equal W[n,k]_q prod_{j=1..k} [jm]_q (``normalizer_factors``)?

    ``rows`` holds the rows n = 0..nmax of W, as ``whitney.w_table`` gives
    them; an entry past the end of its row is 0.

    Both sides are integers at q = X = 2^B: Gaussian binomials by their
    product formula, terms rolled with n and the normalizer built up by
    q-integer products at the point (``qcore.mul_q_int_at_point``, shifts
    and adds), W[n,k](X) packed by ``qcore.pack_at_point`` from the
    column's ``qcalculus.alternating_bound``, so the difference vanishes
    at X only if it is 0.  A W with a negative exponent fails outright.
    """
    (m, r), out = params, []
    for k in range(kmax + 1):
        column = [row[k] if k < len(row) else ZERO for row in rows]
        factors = normalizer_factors(params, k)
        bits, packed = pack_at_point(alternating_bound(params, column, k),
                                     column)
        binom, terms, ok = 1, [], []
        for j in range(k + 1):  # [k j]_{X^m} by its product formula
            terms.append((-1) ** (k - j) * binom << bits * m * comb(k - j, 2))
            binom = (binom * ((1 << bits * m * (k - j)) - 1)
                     // ((1 << bits * m * (j + 1)) - 1))
        norm = 1
        for a in factors:
            norm = mul_q_int_at_point(norm, a, bits)
        for n, v in enumerate(packed):  # term j times [jm+r]_X^n
            if n:
                terms = [mul_q_int_at_point(t, j * m + r, bits)
                         for j, t in enumerate(terms)]
            ok.append(v is not None and sum(terms) == v * norm)
        out.append(ok)
    return out


def horizontal_row(row, qval: Fraction) -> tuple:
    """The values at q = qval of row n of W, the entries W[n,k]_q, k =
    0..n, as integer numerators over one denominator: ``(nums, den)`` with
    W[n,k]_q = nums[k] / den.

    With q = a/b, W[n,k] has exponents 0 <= lo..hi, so its value is
    N a^lo / b^hi and den, the lcm of the entries' denominators, is b^H
    for the row's top degree H.
    """
    a, b = qval.numerator, qval.denominator
    parts = [x.value_parts(a, b) for x in row]
    den = lcm(*(d for _, d in parts))
    return [num * (den // d) for num, d in parts], den


def q_int_parts(qval: Fraction, xs) -> dict:
    """{x: the ``value_parts`` of [x]_q at q = qval} for each x of xs."""
    a, b = qval.numerator, qval.denominator
    return {x: q_int(x).value_parts(a, b) for x in xs}


def horizontal_powers(t: int, qval: Fraction, nmax: int) -> list:
    """[t]_q^n at q = qval for n = 0..nmax as integer pairs: the n-th
    powers of the two parts ``LaurentPoly.value_parts`` gives for [t]_q."""
    tnum, tden = q_int(t).value_parts(qval.numerator, qval.denominator)
    return [(tnum ** n, tden ** n) for n in range(nmax + 1)]


def horizontal_gf_check(params: WhitneyParams, t: int, row: tuple,
                        q_ints: dict, power: tuple) -> bool:
    """Does sum_k W[n,k]_q [t-r|m]_{k,q} = [t]_q^n hold at q = qval?

    ``row`` is ``horizontal_row`` of row n at qval, ``q_ints`` is
    ``q_int_parts`` at qval for a set of x holding every t-r-jm, j < n,
    and ``power`` is entry n of ``horizontal_powers(t, qval, nmax)``.
    With W[n,k] = nums_k / D, [t-r-km]_q = a_k / b_k and [t]_q^n = P / E,
    Horner's rule from k = n-1 down to 0 forms acc, the sum times D d for
    d = b_0 ... b_{n-1}, in integers sized by row n, and the identity times
    the nonzero D d E reads acc E = P D d.  The factors may be q-integers
    of negative arguments; a factor [0]_q zeroes every later term.
    """
    (nums, den), (pnum, pden), (m, r) = row, power, params
    acc, d = nums[-1], 1
    for k in range(len(nums) - 2, -1, -1):
        a, b = q_ints[t - r - k * m]
        d *= b
        acc = nums[k] * d + a * acc
    return acc * pden == pnum * den * d
