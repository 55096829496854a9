"""The q-analogue r-Whitney numbers of the second kind.

The triangular recurrence

    W[n,k] = q^(m(k-1)+r) W[n-1,k-1] + [mk+r]_q W[n-1,k]

is the single authority, and the library carries no other: each entry is
one ``qcore.q_int_mul_add`` pass over its two neighbours in the row above.
One process-wide cache, ``_tables``, keeps the rows built so far for each
(m, r).  Every request of a process shares it on purpose: a stream of
single queries over a few (m, r) cells reads the same rows again and
again.  The 234 requests of the queries benchmark at seed 3 take
0.34-0.38 s of process time with the cache shared, against 0.94-1.01 s
with it cleared before each request (2-vCPU Xeon, CPython 3.11).  The
vertical and horizontal recurrences rebuild a whole column or row from
the column to its left or the row below in one Horner pass, one product
by a q-integer weight per cell.  They form their weights with ``q_int``,
never through the triangle's step, so a fault in the step cannot cancel
out of both sides of a cross-route check.  ``check_degree`` is the one
size gate: every CLI command and ``verify.run_suite`` refuse a request
whose polynomials may reach a degree over ``MAX_DEGREE`` through it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .qcore import LaurentPoly, ONE, ZERO, poly_sum, q_int, q_int_mul_add


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


# Triangle cache keyed by (m, r); rows grown on demand.
_tables: dict = {}


def _rows(params: WhitneyParams, nmax: int) -> list:
    m, r = params.m, params.r
    rows = _tables.get((m, r))
    if rows is None:
        rows = _tables[m, r] = [[ONE]]
    while len(rows) <= nmax:
        # padded so that W[n-1,-1] and W[n-1,n] read as zero
        prev = [ZERO, *rows[-1], ZERO]
        rows.append([q_int_mul_add(prev[k + 1], m * k + r, prev[k],
                                   m * (k - 1) + r)
                     for k in range(len(prev) - 1)])
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
