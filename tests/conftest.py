"""Shared brute-force oracles and random-value helpers.

The oracles here are deliberately independent of the library's own
computation paths: set partitions are enumerated as actual block
structures, the classical recurrence is iterated q-free over plain
integers, classical EGFs are expanded by rational series arithmetic, and
determinants by cofactor expansion.  The q-binomial transform, its
inverse and the Gauss product check test the q-Pascal rows of
``q_binomial_rows``, polynomials in base q stretched to base q^b, and the
alternating q-binomial sum.  ``convolution_first`` and
``convolution_second`` check one cell of each convolution identity as
polynomials, over the full k range of its sum (``first_sides`` and
``second_sides``), and ``pairs`` is the JSON form that ``to_json`` and
the CLI's tables write.

The planted faults live here too, as context managers that patch the
library for their duration only: the recurrence weight, the weight of
the vertical and horizontal routes, the shift of each of those two
routes alone, the shift of the convolution identities, the last term of
each convolution identity's sum, the shift of the Hankel U factor, the
Hankel closed forms, the prefactor of the column generating functions,
the last sum of each tableau walk, the falling factors of the horizontal
generating function, the alternating q-binomial sum of the explicit
route, the shift of its q-Pascal step, the normalizer of the EGF check,
the base of the Newton route's operator product, in two forms: one whose
heads still divide by the normalizer and one whose heads leave a
remainder, the expected product of the classical Hankel corollary, the
last determinant of the shared Hankel elimination, and the values of the
truncated-series step.  Each is the mutation of one route, and
``test_faults.py`` checks that together they fail every identity the
suites check.  ``record_products`` counts the products that take one of
the ring's product paths, and ``count_operators`` the ring's products
and sums.  ``diff_heads`` and ``alternating_terms`` read the two forms of
the q-difference operator, which work on integers at one point, back as
polynomials, over the values of ``q_power_table`` (``operator_sides``).
``poly``, ``power``, ``q_factorial``, ``stretch``, ``q_binomial_rows``
and ``q_power_table`` build test values the library itself never needs.
``multiset_sum`` enumerates the A-tableaux of one cell on its own
(``a_tableaux``), with no prefix shared between cells or tableaux: the
oracle of the tableau walk.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import comb, factorial, prod
from operator import floordiv

import pytest

from qwhitney import (LaurentPoly, WhitneyParams, hankel,
                      laurent_div_q_ints, qcalculus, q_binomial_terms,
                      q_diff_heads, q_int, q_int_mul_add, qcore, series, symm,
                      verify, w_star, whitney)
from qwhitney.qcore import ONE, ZERO


def poly(terms: dict) -> LaurentPoly:
    """The polynomial sum of c q^e over the items e: c of terms."""
    lo = min(terms, default=0)
    c = [0] * (max(terms, default=0) - lo + 1)
    for e, x in terms.items():
        c[e - lo] = x
    return qcore._trimmed(lo, c)


def pairs(p: LaurentPoly) -> list:
    """The sorted [exponent, coefficient-as-decimal-string] pairs of the
    nonzero terms of p, whose ``json.dumps`` is ``p.to_json()``."""
    lo = p.min_exp() if p else 0
    return [[e, str(c)] for e, c in enumerate(p.coeffs, lo) if c]


def power(p: LaurentPoly, n: int) -> LaurentPoly:
    return prod(repeat(p, n), start=ONE)


def q_factorial(n: int) -> LaurentPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    return prod(map(q_int, range(1, n + 1)), start=ONE)


def stretch(p: LaurentPoly, b: int) -> LaurentPoly:
    """p with q -> q^b, b >= 1."""
    return poly({b * e: c for e, c in enumerate(p.coeffs, p.min_exp())}
                if p else {})


def q_binomial_rows(kmax: int, b: int = 1) -> list:
    """Rows k = 0..kmax of the q-Pascal triangle as polynomials, row k the
    list [k j]_{q^b}, j = 0..k: built in base q by
    [k j] = [k-1 j-1] + q^j [k-1 j], then stretched to base q^b."""
    rows = [[ONE]]
    for k in range(1, kmax + 1):
        above = rows[-1]
        rows.append([ONE] + [above[j - 1] + above[j].shift(j)
                             for j in range(1, k)] + [ONE])
    return [[stretch(x, b) for x in row] for row in rows]


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
            if not entry:
                continue
            minor = [row[:j] + row[j + 1:] for row in rs[1:]]
            term = entry * rec(minor)
            acc = acc - term if j % 2 else acc + term
        return acc

    return rec(rows)


def random_laurent(rng: random.Random, max_terms=5, exp_range=(-4, 6),
                   coeff_range=(-9, 9)) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = rng.randint(*exp_range)
        c = rng.randint(*coeff_range)
        terms[e] = terms.get(e, 0) + c
    return poly(terms)


def q_binomial_transform(g, n: int):
    """Forward transform f_n = sum_k [n k]_q g_k, for n' = 0..n."""
    g = list(g)
    return [sum((c * x for c, x in zip(q_binomial_rows(j)[-1], g)), ZERO)
            for j in range(n + 1)]


def q_binomial_inverse(f, n: int):
    """Inverse transform g_n = sum_k (-1)^(n-k) q^C(n-k,2) [n k]_q f_k."""
    f = list(f)
    return [alternating_sum(f[:j + 1], 1, q_binomial_rows(j)[-1])
            for j in range(n + 1)]


def l1(p: LaurentPoly) -> int:
    """The sum of the absolute values of the coefficients of p."""
    return sum(map(abs, p.coeffs))


def at_point(values) -> tuple:
    """``(bound, bits, ints, lo)``: the polynomial values times q^-lo, lo
    their least exponent, packed at one point q = 2^bits.  The bound, 2^k
    times the largest L1 norm of the k+1 values (at least 1), covers every
    coefficient of the values, of row k of the q-Pascal triangle in any
    base, and of both forms of the order-k operator on them; both forms
    are linear in the values, so their results at the point are q^-lo
    times the true ones."""
    bound = 2 ** (len(values) - 1) * max(1, *map(l1, values))
    lo = min((v.min_exp() for v in values if v), default=0)
    bits, ints = qcore.pack_at_point(bound, [v.shift(-lo) for v in values])
    return bound, bits, ints, lo


def diff_heads(values, b: int) -> list:
    """``qcalculus.q_diff_heads`` on polynomial values: each head of the
    operator product, read back from its integer at the point."""
    _, bits, ints, lo = at_point(values)
    return [qcore.unpack_at_point(bits, x).shift(lo)
            for x in q_diff_heads(ints, b, bits)]


def alternating_terms(values, b: int, row) -> list:
    """``qcalculus.q_binomial_terms`` on polynomial values and a q-Pascal
    row: each term of the alternating sum, read back from its integer at
    the point."""
    bound, bits, ints, lo = at_point(values)
    row_ints = qcore.pack_at_point(bound, row)[1]
    return [qcore.unpack_at_point(bits, x).shift(lo)
            for x in q_binomial_terms(ints, b, row_ints, bits)]


def alternating_sum(values, b: int, row) -> LaurentPoly:
    """The alternating q-binomial sum on polynomial values and a q-Pascal
    row: the sum of its terms (``alternating_terms``)."""
    return sum(alternating_terms(values, b, row), ZERO)


def q_power_table(offset: int, step: int, count: int, nmax: int) -> list:
    """The values of [x + offset]_q ** n at the count nodes
    x = 0, step, ..., (count-1) step, one tuple per n = 0..nmax.

    Row n is row n-1 times [x + offset]_q node by node: a sliding-window
    product, never a power.  The polynomials the explicit suite rolls as
    integers at one point.
    """
    bases = [q_int(i * step + offset) for i in range(count)]
    values = (ONE,) * count
    table = [values]
    for _ in range(nmax):
        values = tuple(v * a for v, a in zip(values, bases))
        table.append(values)
    return table


def operator_sides(params: WhitneyParams, nmax: int) -> tuple:
    """Rows n = 0..nmax of each form of the q-difference operator,
    (sums, heads): the alternating sum and the operator product's heads
    over the values and q-Pascal rows the explicit suite reads, each read
    back as a polynomial.  Cell (n, k) of either is W[n,k] times the
    normalizer of column k."""
    m = params.m
    powers = q_power_table(params.r, m, nmax + 1, nmax)
    rows = q_binomial_rows(nmax, m)
    sums = [[alternating_sum(values[:k + 1], m, rows[k])
             for k in range(n + 1)] for n, values in enumerate(powers)]
    heads = [diff_heads(values[:n + 1], m)
             for n, values in enumerate(powers)]
    return sums, heads


def operator_rows(params: WhitneyParams, nmax: int) -> tuple:
    """Rows n = 0..nmax of W from each form of the q-difference operator,
    (explicit, newton): ``operator_sides``, each cell divided by the
    normalizer of its column."""
    def normalized(side):
        return [[laurent_div_q_ints(x, whitney.normalizer_factors(params, k))
                 for k, x in enumerate(row)] for row in side]

    sums, heads = operator_sides(params, nmax)
    return normalized(sums), normalized(heads)


def _entry(rows, n: int, k: int) -> LaurentPoly:
    """rows[n][k], or ZERO past the end of either list."""
    return rows[n][k] if n < len(rows) and k < len(rows[n]) else ZERO


def first_sides(table, shifted, n: int, l: int, j: int) -> tuple:
    """``(lhs, terms)`` of the first convolution identity at (n, l, j),
    l+j <= n: W*[n+1, l+j+1]_q and the products W*_{m,r}[k,l]_q
    W*_{m,r+m(l+1)}[n-k,j]_q, k = 0..n, whose sum it is.  Reads the W*
    tables of ``symm.convolution_tables`` (or tables of their values), an
    entry past the end of a table read as 0."""
    return table[n + 1][l + j + 1], [
        _entry(table, k, l) * _entry(shifted[l + 1], n - k, j)
        for k in range(n + 1)]


def second_sides(table, shifted, s: int, p: int, t: int) -> tuple:
    """``(lhs, terms)`` of the second convolution identity at (s, p, t),
    t <= s+p: W*[s+p,t]_q and the products W*_{m,r}[s,k]_q
    W*_{m,r+mk}[p,t-k]_q, k = 0..t, read as ``first_sides`` reads them."""
    return table[s + p][t], [
        _entry(table, s, k) * _entry(shifted[k] if k < len(shifted) else (),
                                     p, t - k)
        for k in range(t + 1)]


def convolution_first(table, shifted, n: int, l: int, j: int) -> bool:
    """W*[n+1, l+j+1]_q = sum_{k=0}^{n} W*_{m,r}[k,l]_q
    W*_{m,r+m(l+1)}[n-k,j]_q, l+j <= n, as polynomials?"""
    lhs, terms = first_sides(table, shifted, n, l, j)
    return lhs == sum(terms, ZERO)


def convolution_second(table, shifted, s: int, p: int, t: int) -> bool:
    """W*[s+p,t]_q = sum_{k=0}^{t} W*_{m,r}[s,k]_q W*_{m,r+mk}[p,t-k]_q,
    t <= s+p, as polynomials?"""
    lhs, terms = second_sides(table, shifted, s, p, t)
    return lhs == sum(terms, ZERO)


def a_tableaux(k: int, length: int):
    """All tableaux with `length` columns of lengths in {0..k}, each given
    by its weakly increasing tuple of column lengths."""
    return combinations_with_replacement(range(k + 1), length)


def multiset_sum(values, d: int) -> LaurentPoly:
    """h_d(values) as the sum over multisets of size d: over the A-tableaux
    with d columns of lengths in {0..len(values)-1}, each product built
    from ONE.  Over [r]_q, ..., [mk+r]_q at d = n-k it is W*_{m,r}[n,k]_q
    from that cell's tableaux alone, the oracle of symm.tableau_walk."""
    acc = ZERO
    for phi in a_tableaux(len(values) - 1, d):
        term = ONE
        for c in phi:
            term = term * values[c]
        acc = acc + term
    return acc


def gauss_product_check(n: int) -> bool:
    """Does sum_k q^C(k,2) [n k]_q x^k equal (1+x)(1+xq)...(1+xq^(n-1))?

    Both sides are compared as coefficient lists in x.
    """
    lhs = [c.shift(comb(k, 2)) for k, c in enumerate(q_binomial_rows(n)[-1])]
    rhs = [ONE]
    for i in range(n):
        qi = ONE.shift(i)
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
def perturb_route_weight():
    """The weight [a]_q of the vertical and horizontal routes becomes
    [a+1]_q.  Only those routes call ``whitney.q_int``; the triangle's own
    step, and so every other route, is kept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(whitney, "q_int", lambda a: q_int(a + 1))
        yield


@contextmanager
def perturb_vertical_shift():
    """The vertical route's shift q^(mk+r) becomes q^(mk+r+1) where the
    recurrences suite reads ``whitney.vertical_pass``; the horizontal
    route is kept."""
    def shifted(params, k, n):
        m, r = params.m, params.r
        weight = q_int(m * (k + 1) + r)
        acc, out = ZERO, []
        for j in range(k, n + 1):
            acc = acc * weight + whitney.w(params, j, k)
            out.append(acc.shift(m * k + r + 1))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "vertical_pass", shifted)
        yield


@contextmanager
def perturb_horizontal_shift():
    """The horizontal route's shift q^(m-r-mh) at each step becomes
    q^(m-r-mh+1) where the recurrences suite reads
    ``whitney.horizontal_pass``; the vertical route is kept."""
    def shifted(params, n):
        m, r = params.m, params.r
        acc, out = ZERO, [ZERO] * (n + 1)
        for h in range(n + 1, 0, -1):
            entry = whitney.w(params, n + 1, h)
            acc = (acc * q_int(m * h + r)
                   + (entry if h % 2 else -entry)).shift(m - r - m * h + 1)
            out[h - 1] = acc if h % 2 else -acc
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "horizontal_pass", shifted)
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
def _last_term_dropped(name: str):
    """``symm.name``, a reader of one convolution identity's sides, with
    the last term of the sum dropped."""
    right = getattr(symm, name)

    def short(*args):
        lhs, xs, ys = right(*args)
        return lhs, xs[:-1], ys[:-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symm, name, short)
        yield


def perturb_first_sides():
    """The first convolution identity's sum loses its last term where
    ``symm.convolution_check`` reads it; the second is kept."""
    return _last_term_dropped("_first_sides")


def perturb_second_sides():
    """The second convolution identity's sum loses its last term where
    ``symm.convolution_check`` reads it; the first is kept."""
    return _last_term_dropped("_second_sides")


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


def closed_forms_times_2(forms):
    """A Hankel family's closed forms, each product times [2]_q, with the
    factor lists kept."""
    return [(closed * q_int(2), factors) for closed, factors in forms]


@contextmanager
def perturb_closed_form():
    """Every Hankel closed form is read times [2]_q.  The elimination then
    divides its pivots the general way and stays exact; only the check
    against the closed form fails."""
    right = hankel.hankel_closed_forms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "hankel_closed_forms",
                   lambda spec: closed_forms_times_2(right(spec)))
        yield


@contextmanager
def perturb_gf_prefactor():
    """The prefactor q^(m C(k,2) + kr) of every column generating function
    gains one more q."""
    right = series.rational_gf_columns

    def shifted(params, kmax, N):
        return [tuple(c.shift(1) for c in column)
                for column in right(params, kmax, N)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "rational_gf_columns", shifted)
        yield


@contextmanager
def perturb_tableau_walk():
    """The last sum of every tableau walk, the one over its longest
    tableaux, is short by 1.  Only the tableau route reads the walk."""
    right = symm.tableau_walk

    def short(params, k, length):
        sums = right(params, k, length)
        sums[-1] = sums[-1] - ONE
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symm, "tableau_walk", short)
        yield


@contextmanager
def perturb_horizontal_falling():
    """The falling factors of the horizontal generating function are read
    at t+1 instead of t, from a table of [x]_q that holds x+1 for every x
    the grid asks for; its row values and powers of [t]_q are kept."""
    right, parts = series.horizontal_gf_check, series.q_int_parts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "q_int_parts",
                   lambda qval, xs: parts(qval, [x + 1 for x in xs]))
        mp.setattr(series, "horizontal_gf_check",
                   lambda params, t, row, q_ints, power: right(
                       params, t + 1, row, q_ints, power))
        yield


@contextmanager
def perturb_alternating_sum():
    """Each term of the alternating q-binomial sum is negated for k >= 1
    where the explicit suite reads them, so the explicit route's numerator
    is.  The Newton route takes the operator product instead, and the EGF
    check forms its terms at one integer point."""
    right = qcalculus.q_binomial_terms

    def negated(values, b, row, bits):
        terms = right(values, b, row, bits)
        return [-t for t in terms] if len(values) > 1 else terms

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalculus, "q_binomial_terms", negated)
        yield


@contextmanager
def perturb_binomial_row():
    """The shift q^(bj) of the q-Pascal step [k j] = [k-1 j-1] +
    q^(bj) [k-1 j] becomes q^(b(j+1)) where the explicit suite reads
    ``qcalculus.q_binomial_row``.  The EGF check forms its Gaussian
    binomials by their product formula, and the Newton route reads none."""
    def shifted(above, b, bits):
        if not above:
            return [1]
        return [1, *(left + (right << bits * b * (j + 1))
                     for j, (left, right) in enumerate(zip(above, above[1:]),
                                                       1)),
                1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalculus, "q_binomial_row", shifted)
        yield


@contextmanager
def perturb_egf_normalizer():
    """The EGF check's normalizer prod_{j=1..k} [jm]_q loses its last
    factor [km]_q; the explicit and Newton routes keep theirs."""
    right = series.normalizer_factors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "normalizer_factors",
                   lambda params, k: right(params, k)[:-1])
        yield


@contextmanager
def perturb_newton_base():
    """The factor (E_h - q^(bj)) of the Newton route's operator product
    becomes (E_h - q^(b(j+1))) where the explicit suite reads
    ``qcalculus.q_diff_heads``; the explicit route's alternating sum is
    kept."""
    def shifted(values, b, bits):
        heads = [values[0]]
        for j in range(len(values) - 1):
            values = [upper - (lower << bits * b * (j + 1))
                      for lower, upper in zip(values, values[1:])]
            heads.append(values[0])
        return heads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalculus, "q_diff_heads", shifted)
        yield


@contextmanager
def perturb_newton_remainder():
    """The base q^b of the Newton route's operator product is read as
    q^(b+1), so that most of its heads leave a remainder on division by
    the normalizer: a fault that raises inside the route's division."""
    right = qcalculus.q_diff_heads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalculus, "q_diff_heads",
                   lambda values, b, bits: right(values, b + 1, bits))
        yield


@contextmanager
def perturb_classical_product():
    """The expected product prod_k (m(s+k)+r)^k of the classical Hankel
    corollary runs to k = n+1, one factor too far; the integer
    determinants it is compared with are kept."""
    def one_too_many(spec, rows):
        m, r, s = spec.params.m, spec.params.r, spec.s
        ints = [[sum(x.coeffs) for x in row] for row in rows]
        dets = hankel.leading_minors(ints, floordiv)
        return [det == prod((m * (s + k) + r) ** k for k in range(n + 2))
                for n, det in enumerate(dets)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "classical_hankel_check", one_too_many)
        yield


@contextmanager
def perturb_last_minor():
    """The last determinant of every ``hankel.leading_minors`` call is
    negated: the one elimination that both the Laurent and the integer
    Hankel determinants come from."""
    right = hankel.leading_minors

    def negated(rows, exact_div):
        dets = right(rows, exact_div)
        return dets[:-1] + [-dets[-1]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "leading_minors", negated)
        yield


@contextmanager
def perturb_h_prefixes():
    """Each value enters ``symm.h_prefixes`` as q x instead of x, where the
    symmetric suite and, through the name it imported, the column
    generating functions read it."""
    right = symm.h_prefixes

    def shifted(values, d):
        return right([x.shift(1) for x in values], d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symm, "h_prefixes", shifted)
        mp.setattr(series, "h_prefixes", shifted)
        yield


def record_products(monkeypatch, name):
    """The operand lengths of every call of the product qcore.name, in a
    list that fills while the monkeypatch lasts."""
    seen = []
    product = getattr(qcore, name)

    def counted(a, b):
        seen.append((len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(qcore, name, counted)
    return seen


def count_operators(monkeypatch) -> Counter:
    """The number of calls of LaurentPoly's product and sum, keyed by
    "__mul__" and "__add__", in a Counter that fills while the monkeypatch
    lasts."""
    calls = Counter()

    def counted(name):
        op = getattr(LaurentPoly, name)

        def call(a, b):
            calls[name] += 1
            return op(a, b)
        return call

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(LaurentPoly, name, counted(name))
    return calls
