"""Symmetric-function route and tableau oracle for the normalized numbers.

W*_{m,r}[n,k]_q is the complete homogeneous symmetric polynomial of degree
n-k in the k+1 values [r]_q, [m+r]_q, ..., [mk+r]_q: the z^(n-k)
coefficient of prod_{j<=k} 1/(1 - [mj+r]_q z), which ``h_prefixes`` (also
behind ``series.rational_gf_columns``) builds one factor at a time.  A
brute-force sum over weakly increasing column-length lists (A-tableaux)
provides the independent exponential-time oracle, and the two convolution
identities are checked as exact polynomial equalities.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .qcore import LaurentPoly, ONE, ZERO, q_int
from .whitney import WhitneyParams, w_star


class EnumerationTooLarge(ValueError):
    """Tableau enumeration would exceed the configured cap."""


DEFAULT_ENUMERATION_CAP = 10 ** 6


def a_tableaux(k: int, length: int):
    """All tableaux with `length` columns of lengths in {0..k}, each given
    by its weakly increasing tuple of column lengths."""
    return combinations_with_replacement(range(k + 1), length)


def h_prefixes(values, d: int):
    """Yield (h_0, ..., h_d) in values[0..j] for j = 0, 1, ...: the z^0..z^d
    coefficients of prod_{i<=j} 1/(1 - values[i] z), each factor one
    in-place pass h_i += x h_{i-1}, i = 1..d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    row = [ONE] + [ZERO] * d
    for x in values:
        for i in range(1, d + 1):
            row[i] = row[i] + x * row[i - 1]
        yield tuple(row)


def h_complete(values, d: int) -> LaurentPoly:
    """h_d(values), from the last row of h_prefixes; tableau_sum keeps the
    enumeration route separate."""
    row = (ONE,) + (ZERO,) * d
    for row in h_prefixes(values, d):
        pass
    return row[d]


def whitney_values(params: WhitneyParams, k: int) -> list:
    """[r]_q, [m+r]_q, ..., [mk+r]_q."""
    return [q_int(params.m * i + params.r) for i in range(k + 1)]


def w_star_symmetric(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """W*_{m,r}[n,k]_q = h_{n-k}([r]_q, [m+r]_q, ..., [mk+r]_q)."""
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    return h_complete(whitney_values(params, k), n - k)


def tableau_sum(params: WhitneyParams, n: int, k: int) -> LaurentPoly:
    """Brute-force W*_{m,r}[n,k]_q: sum of column-weight products over all
    A-tableaux with n-k columns of lengths in {0..k}; refused when there
    are more than DEFAULT_ENUMERATION_CAP of them."""
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    count, cap = comb(n, n - k), DEFAULT_ENUMERATION_CAP
    if count > cap:
        raise EnumerationTooLarge(f"{count} tableaux exceeds cap {cap}")
    weights = whitney_values(params, k)
    acc = ZERO
    for phi in a_tableaux(k, n - k):
        prod = ONE
        for c in phi:
            prod = prod * weights[c]
        acc = acc + prod
    return acc


def convolution_first(params: WhitneyParams, n: int, l: int, j: int) -> bool:
    """W*[n+1, l+j+1]_q = sum_{k=0}^{n} W*_{m,r}[k,l]_q W*_{m,r+m(l+1)}[n-k,j]_q?"""
    if n < 0 or l < 0 or j < 0:
        raise ValueError("n, l, j must be >= 0")
    lhs = w_star(params, n + 1, l + j + 1)
    shifted = WhitneyParams(params.m, params.r + params.m * (l + 1))
    rhs = ZERO
    for k in range(n + 1):
        rhs = rhs + w_star(params, k, l) * w_star(shifted, n - k, j)
    return lhs == rhs


def convolution_second(params: WhitneyParams, s: int, p: int, t: int) -> bool:
    """W*[s+p,t]_q = sum_{k=max(0,t-p)}^{min(t,s)} W*[s,k]_q W*_{m,r+mk}[p,t-k]_q?"""
    if s < 0 or p < 0 or t < 0:
        raise ValueError("s, p, t must be >= 0")
    lhs = w_star(params, s + p, t)
    rhs = ZERO
    for k in range(max(0, t - p), min(t, s) + 1):
        shifted = WhitneyParams(params.m, params.r + params.m * k)
        rhs = rhs + w_star(params, s, k) * w_star(shifted, p, t - k)
    return lhs == rhs
