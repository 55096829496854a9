"""The q-analogue r-Whitney numbers of the second kind.

The triangular recurrence

    W[n,k] = q^(m(k-1)+r) W[n-1,k-1] + [mk+r]_q W[n-1,k]

is the single authority, and the library carries no other.  It is applied
in one of two forms.  An entry whose classical value w(n,k), its value at
q = 1, is under 2^64 is built as one integer at X = 2^64: there it is the
normalized W*[n,k] = W*[n-1,k-1] + [mk+r]_q W*[n-1,k], whose coefficients
are nonnegative and sum to w(n,k), so each fits one 64-bit slot and no
slot carries.  ``qcore.mul_q_int_at_point`` multiplies by [mk+r]_X with
shifts and adds, and ``qcore.unpack_words`` reads the sum back into its
LaurentPoly with one ``memoryview`` cast.  Both parents of such an entry
are under 2^64 too, so they are at the point already.  Every other entry,
and every entry on a big-endian host, is one ``qcore.q_int_mul_add`` pass
over its two neighbours in the row above.  Both forms, and the row of
classical values w(n,k) = (mk+r) w(n-1,k) + w(n-1,k-1) that picks between
them, read the weights mk+r from ``_weights``.

One process-wide cache, ``_tables``, keeps for each (m, r) the rows built
so far as lists of LaurentPoly, and beside them only the last row's
integers at X (None for an entry built by lists) and its classical
values, from which the next row grows; all three move together, row by
row.  Every request of a process shares it on purpose: a stream of single
queries over a few (m, r) cells reads the same rows again and again.  The
234 requests of the queries benchmark at seed 3 take 0.11-0.14 s of
process time with the cache shared, against 0.31-0.40 s with it cleared
before each request (2-vCPU Xeon, CPython 3.11).  The vertical and
horizontal recurrences rebuild a whole column or row from the column to
its left or the row below in one Horner pass, one product by a q-integer
weight per cell.  They form their weights with ``q_int``, never through
the triangle's step, so a fault in the step cannot cancel out of both
sides of a cross-route check.  ``check_degree`` is the one size gate:
every CLI command and ``verify.run_suite`` refuse a request whose
polynomials may reach a degree over ``MAX_DEGREE`` through it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import qcore
from .qcore import (LaurentPoly, ONE, ZERO, mul_q_int_at_point, poly_sum,
                    q_int, q_int_mul_add, unpack_words)


class WhitneyParams(namedtuple("WhitneyParams", "m r")):
    """Dowling-type parameter m >= 1 and shift parameter r >= 0.

    A named tuple, not a dataclass: ``dataclasses`` imports ``inspect``,
    and with it ``ast``, ``dis`` and ``tokenize``, in every CLI process.
    """

    __slots__ = ()

    def __new__(cls, m: int, r: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if r < 0:
            raise ValueError("r must be >= 0")
        return super().__new__(cls, m, r)


# Triangle cache keyed by (m, r): [rows, last row at X = 2^64, last row
# at q = 1], grown on demand.
_tables: dict = {}

# An entry whose value at q = 1 is under this is built at X = 2^64.
_WORD = 1 << 64


def _weights(m: int, r: int, count: int) -> range:
    """mk+r for k = 0..count-1: the weights [mk+r]_q of a triangle row."""
    return range(r, m * count + r, m)


def _rows(params: WhitneyParams, nmax: int) -> list:
    m, r = params.m, params.r
    table = _tables.get((m, r))
    if table is None:
        table = _tables[m, r] = [[[ONE]], [1], [1]]
    rows, xs, ones = table
    words = qcore._WORDS  # empty on a big-endian host: lists only
    while len(rows) <= nmax:
        # padded so that entries -1 and n of the row above read as zero
        prev, up_x, up_1 = [ZERO, *rows[-1], ZERO], [0, *xs, 0], [0, *ones, 0]
        row, xs, ones, lo = [], [], [], 0
        for k, a in enumerate(_weights(m, r, len(rows) + 1)):
            one = a * up_1[k + 1] + up_1[k]
            if words and one < _WORD:
                x = mul_q_int_at_point(up_x[k + 1], a, 64) + up_x[k]
                row.append(unpack_words(x, lo))
            else:
                x = None
                row.append(q_int_mul_add(prev[k + 1], a, prev[k],
                                         m * (k - 1) + r))
            xs.append(x)
            ones.append(one)
            lo += m * k + r  # row_degree(m, r, k + 1)
        rows.append(row)
        table[1:] = xs, ones
    return rows


def w(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """W_{m,r}[n,k]_q via the triangular recurrence; 0 out of range."""
    if n < 0 or k < 0 or n < k:
        return ZERO
    return _rows(params, n)[n][k]


def w_table(params: WhitneyParams, nmax: int) -> tuple:
    """The full triangle up to row nmax: entry [n][k] is W_{m,r}[n,k]_q."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return tuple(map(tuple, _rows(params, nmax)[:nmax + 1]))


def vertical_pass(params: WhitneyParams, k: int, n: int) -> list:
    """W_{m,r}[j+1,k+1]_q = q^(mk+r) sum_{i=k}^{j} [m(k+1)+r]_q^(j-i) W[i,k]
    for j = k..n, from column k in one Horner pass: acc <- acc [m(k+1)+r]_q
    + W[j,k], and after step j, acc q^(mk+r) is W[j+1,k+1]."""
    m, r = params.m, params.r
    weight = q_int(m * (k + 1) + r)
    acc, out = ZERO, []
    for j in range(k, n + 1):
        acc = acc * weight + w(params, j, k)
        out.append(acc.shift(m * k + r))
    return out


def horizontal_pass(params: WhitneyParams, n: int) -> list:
    """W_{m,r}[n,k]_q for k = 0..n, each reconstructed from row n+1:

        sum_{j=0}^{n-k} (-1)^j q^(-r-m(k+j)) (r_{k+j+1,q}/r_{k+1,q}) W[n+1,k+j+1]

    The weight ratio is prod_{h=k+1}^{k+j} q^(m-r-mh) [mh+r]_q; term j
    shares q^(m-r-mh) at h = k+j+1 with its last factor, so in Horner form
    acc <- q^(m-r-mh) (acc [mh+r]_q +- W[n+1,h]) for h = n+1 down to k+1.
    One pass serves the whole row: the sign of W[n+1,h] is fixed by h
    alone, so after step h the sum is W[n,h-1] up to the sign (-1)^(h-1).
    A value with a negative exponent is returned as it is: no W has one,
    so the recurrences suite's comparison fails its cell.
    """
    m, r = params.m, params.r
    acc, out = ZERO, [ZERO] * (n + 1)
    for h in range(n + 1, 0, -1):
        entry = w(params, n + 1, h)
        acc = (acc * q_int(m * h + r)
               + (entry if h % 2 else -entry)).shift(m - r - m * h)
        out[h - 1] = acc if h % 2 else -acc
    return out


def w_star(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """Normalized value W*_{m,r}[n,k]_q = q^(-m C(k,2) - kr) W_{m,r}[n,k]_q."""
    return w(params, n, k).shift(-row_degree(params.m, params.r, k))


def r_dowling(params: WhitneyParams, n: int) -> LaurentPoly:
    """Row sum sum_k W_{m,r}[n,k]_q (q-analogue r-Dowling number), one
    ``poly_sum`` over the row."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return poly_sum(_rows(params, n)[n])


def row_degree(m: int, r: int, n: int) -> int:
    """The top degree m*C(n,2) + r*n of row n >= 0 of the triangle."""
    return m * comb(n, 2) + r * n


def normalizer_factors(params: WhitneyParams, k: int) -> range:
    """m, ..., km: the normalizer [k]_{q^m}! [m]_q^k is prod [jm]_q."""
    return range(params.m, (k + 1) * params.m, params.m)


# The largest degree a request's polynomials may reach: row n of the
# triangle has top degree row_degree(m, r, n), a Hankel family is bounded
# by hankel.degree_bound.  table --m 1 --r 1 --nmax 80 (3240) passes.
MAX_DEGREE = 4096


def check_degree(degree: int) -> None:
    """ValueError naming `degree` when it is over MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ValueError(f"request too large: its polynomials may reach "
                         f"degree {degree}, over the limit MAX_DEGREE = "
                         f"{MAX_DEGREE}")
