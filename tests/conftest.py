"""Shared brute-force oracles and random-value helpers.

The oracles here are deliberately independent of the library's own
computation paths: set partitions are enumerated as actual block
structures, the classical recurrence is iterated q-free over plain
integers, classical EGFs are expanded by rational series arithmetic, and
determinants by cofactor expansion.  The q-binomial transform, its
inverse and the Gauss product check test the q-Pascal rows and the
alternating q-binomial sum.

The planted faults live here too, as context managers that patch the
library for their duration only: the recurrence weight, the shift of the
convolution identities and the shift of the Hankel U factor.  Each is the
mutation of one route, and ``test_faults.py`` checks that together they
fail every identity the suites check.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import pytest

from qwhitney import (LaurentPoly, WhitneyParams, hankel,
                      q_binomial_alternating_sum, q_binomial_row,
                      q_int_mul_add, symm, w_star, whitney)
from qwhitney.qcore import ONE, ZERO


def enumerate_set_partitions(n):
    """Yield every partition of {0..n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in enumerate_set_partitions(n - 1):
        elem = n - 1
        yield part + [[elem]]
        for i in range(len(part)):
            yield part[:i] + [part[i] + [elem]] + part[i + 1:]


def stirling2_enum(n, k):
    """S(n,k) by counting enumerated partitions with exactly k blocks."""
    return sum(1 for part in enumerate_set_partitions(n) if len(part) == k)


def bell_enum(n):
    return sum(1 for _ in enumerate_set_partitions(n))


def classical_whitney_recurrence(m, r, n, k):
    """q-free recurrence W(n,k) = W(n-1,k-1) + (mk+r) W(n-1,k)."""
    if n < 0 or k < 0 or n < k:
        return 0
    row = [1]
    for nn in range(1, n + 1):
        row = [(row[kk - 1] if kk >= 1 else 0)
               + (m * kk + r) * (row[kk] if kk < nn else 0)
               for kk in range(nn + 1)]
    return row[k]


def classical_egf_coeffs(m, r, k, order):
    """Rational t^n coefficients of e^(rt) (e^(mt)-1)^k / (k! m^k)."""
    exp_r = [Fraction(r) ** i / factorial(i) for i in range(order + 1)]
    expm1 = [Fraction(0)] + [Fraction(m) ** i / factorial(i)
                             for i in range(1, order + 1)]

    def convolve(a, b):
        return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
                for n in range(order + 1)]

    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(k):
        power = convolve(power, expm1)
    out = convolve(exp_r, power)
    scale = Fraction(1, factorial(k) * m ** k)
    return [c * scale for c in out]


def det_cofactor(rows) -> LaurentPoly:
    """Determinant by first-row cofactor expansion (oracle for small orders)."""
    rows = [list(r) for r in rows]

    def rec(rs):
        if len(rs) == 1:
            return rs[0][0]
        acc = ZERO
        for j, entry in enumerate(rs[0]):
            if entry.is_zero():
                continue
            minor = [row[:j] + row[j + 1:] for row in rs[1:]]
            sign = -1 if j % 2 else 1
            acc = acc + entry * rec(minor) * sign
        return acc

    return rec(rows)


def random_laurent(rng: random.Random, max_terms=5, exp_range=(-4, 6),
                   coeff_range=(-9, 9)) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = rng.randint(*exp_range)
        c = rng.randint(*coeff_range)
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def q_binomial_transform(g, n: int):
    """Forward transform f_n = sum_k [n k]_q g_k, for n' = 0..n."""
    g = list(g)
    return [sum((c * x for c, x in zip(q_binomial_row(j), g)), ZERO)
            for j in range(n + 1)]


def q_binomial_inverse(f, n: int):
    """Inverse transform g_n = sum_k (-1)^(n-k) q^C(n-k,2) [n k]_q f_k."""
    f = list(f)
    return [q_binomial_alternating_sum(f[:j + 1], 1, q_binomial_row(j))
            for j in range(n + 1)]


def gauss_product_check(n: int) -> bool:
    """Does sum_k q^C(k,2) [n k]_q x^k equal (1+x)(1+xq)...(1+xq^(n-1))?

    Both sides are compared as coefficient lists in x.
    """
    lhs = [c.shift(comb(k, 2)) for k, c in enumerate(q_binomial_row(n))]
    rhs = [ONE]
    for i in range(n):
        qi = LaurentPoly.monomial(i)
        new = [ZERO] * (len(rhs) + 1)
        for d, c in enumerate(rhs):
            new[d] = new[d] + c
            new[d + 1] = new[d + 1] + c * qi
        rhs = new
    return lhs == rhs


@contextmanager
def perturb_recurrence():
    """Deliberately break the triangular recurrence: its weight [mk+r]_q
    becomes [mk+r+1]_q, so every identity that is a theorem about the true
    recurrence must fail.  The rows are built in an empty cache of their
    own; the library's cache is back, untouched, on exit."""
    def heavier(p, a, q, e):
        return q_int_mul_add(p, a + 1, q, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "_tables", {})
        mp.setattr(whitney, "q_int_mul_add", heavier)
        yield


@contextmanager
def perturb_convolution_shift():
    """The shifted parameter of both convolution identities gets one more
    unit of r.  A recurrence fault cannot reach these cells, since both
    sides read the same triangle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symm, "WhitneyParams",
                   lambda m, r: WhitneyParams(m, r + 1))
        yield


@contextmanager
def perturb_u_factor():
    """The Hankel U factor is read with the shift r + m(s+i+1) instead of
    r + m(s+i); the lower factor is kept."""
    original = hankel.lu_factors

    def shifted(spec):
        lower, _ = original(spec)
        params, s, n = spec.params, spec.s, spec.n
        upper = tuple(
            tuple(w_star(WhitneyParams(params.m,
                                       params.r + params.m * (s + i + 1)),
                         j, j - i) if i <= j else ZERO
                  for j in range(n + 1))
            for i in range(n + 1))
        return lower, upper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "lu_factors", shifted)
        yield
