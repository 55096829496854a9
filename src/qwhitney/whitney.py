"""The q-analogue r-Whitney numbers of the second kind.

The triangular recurrence

    W[n,k] = q^(m(k-1)+r) W[n-1,k-1] + [mk+r]_q W[n-1,k]

is the single authority; a per-(m,r) table memoizes it, and each entry is
one ``qcore.q_int_mul_add`` pass over its two neighbours in the row above.
The vertical and horizontal recurrences recompute values without
consulting the memo for the row/column they reconstruct, so cross-route
equality tests are meaningful.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import comb

from .qcore import LaurentPoly, ONE, ZERO, q_int, q_int_mul_add


class InternalNonLaurent(ArithmeticError):
    """A value that must be a nonnegative-exponent polynomial is not."""


@dataclass(frozen=True)
class WhitneyParams:
    """Dowling-type parameter m >= 1 and shift parameter r >= 0."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.r < 0:
            raise ValueError("r must be >= 0")


# Triangle cache keyed by (m, r); rows grown on demand.
_tables: dict = {}

# Mutation-test hook: added to the column weight [mk+r]_q of the recurrence.
# Zero in normal operation; see perturb_recurrence().
_mutation_offset = 0


@contextmanager
def perturb_recurrence():
    """Deliberately break the triangular recurrence (for mutation testing).

    Inside the context, the recurrence weight [mk+r]_q becomes [mk+r+1]_q,
    so every identity that is a theorem about the true recurrence must fail.
    """
    global _mutation_offset
    _tables.clear()
    _mutation_offset = 1
    try:
        yield
    finally:
        _mutation_offset = 0
        _tables.clear()


def _rows(params: WhitneyParams, nmax: int) -> list:
    rows = _tables.setdefault((params.m, params.r), [[ONE]])
    m, r = params.m, params.r
    while len(rows) <= nmax:
        # padded so that W[n-1,-1] and W[n-1,n] read as zero
        prev = [ZERO, *rows[-1], ZERO]
        rows.append([q_int_mul_add(prev[k + 1], m * k + r + _mutation_offset,
                                   prev[k], m * (k - 1) + r)
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


def w_vertical(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """W_{m,r}[n+1,k+1]_q reconstructed from column k alone:

        q^(mk+r) * sum_{j=k}^{n} [m(k+1)+r]_q^(n-j) W[j,k]
    """
    m, r = params.m, params.r
    weight = q_int(m * (k + 1) + r)
    acc = ZERO
    power = ONE
    for j in range(n, k - 1, -1):
        acc = acc + power * w(params, j, k)
        power = power * weight
    return acc.shift(m * k + r)


def w_horizontal(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """W_{m,r}[n,k]_q reconstructed from row n+1:

        sum_{j=0}^{n-k} (-1)^j q^(-r-m(k+j)) (r_{k+j+1,q}/r_{k+1,q}) W[n+1,k+j+1]

    The ratio of column weights is formed as the telescoped product
    prod_{h=k+1}^{k+j} q^(-r-mh+m) [mh+r]_q, which stays in the Laurent ring.
    """
    if not 0 <= k <= n:
        raise ValueError("w_horizontal requires 0 <= k <= n")
    m, r = params.m, params.r
    acc = ZERO
    ratio = ONE  # r_{k+j+1,q} / r_{k+1,q}, telescoped
    for j in range(n - k + 1):
        if j >= 1:
            h = k + j
            ratio = ratio * q_int(m * h + r).shift(-r - m * h + m)
        sign = -1 if j % 2 else 1
        acc = acc + (ratio * w(params, n + 1, k + j + 1)).shift(-r - m * (k + j)) * sign
    if not acc.is_zero() and acc.min_exp() < 0:
        raise InternalNonLaurent(f"horizontal route left negative exponents at {(n, k)}")
    return acc


def w_star(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """Normalized value W*_{m,r}[n,k]_q = q^(-m C(k,2) - kr) W_{m,r}[n,k]_q."""
    return w(params, n, k).shift(-(params.m * comb(k, 2) + k * params.r))


def r_dowling(params: WhitneyParams, n: int) -> LaurentPoly:
    """Row sum sum_k W_{m,r}[n,k]_q (q-analogue r-Dowling number)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((w(params, n, k) for k in range(n + 1)), ZERO)


def classical_w(params: WhitneyParams, n: int, k: int) -> int:
    """The classical r-Whitney number W_{m,r}(n,k): the q=1 value, which is
    the sum of the integer coefficients."""
    return sum(w(params, n, k).coeffs)


def row_degree(m: int, r: int, n: int) -> int:
    """The top degree m*C(n,2) + r*n of row n >= 0 of the triangle."""
    return m * comb(n, 2) + r * n
