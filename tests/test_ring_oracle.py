"""Differential tests of the Laurent ring against sympy.

sympy is an independent implementation of Z[q] arithmetic: every product,
exact quotient and rational value computed here is recomputed by sympy.
The inputs carry negative exponents, interior zeros, negative coefficients
and coefficients of up to 300 bits, at lengths that reach both product
algorithms: a run of equal coefficients (q-integers and their multiples)
and Kronecker substitution, the latter with a short and a long operand as
well as with two long ones, and in both of its slot kinds: machine words
for nonnegative operands whose slot bound fits one, bytes otherwise.  Sums
and differences are checked with overlapping and disjoint supports and
with ends that cancel.  The two q-integer kernels, the fused step
[a]_q p + q^e q of the triangle and the division by a product of
q-integers, are checked the same way, and so are the integers of
polynomials at one point q = 2^B, their balanced-digit reading and the
shift-and-add product by a q-integer there.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import poly, record_products
from qwhitney import (NonExactDivision, laurent_div_q_ints,
                      laurent_exact_div, q_int, q_int_mul_add, qcore)
from qwhitney.qcore import ONE, ZERO

sympy = pytest.importorskip("sympy")
Q = sympy.Symbol("q")
BIG = 2 ** 300

coefficients = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG))
offsets = st.integers(-30, 30)
# Operands of up to this many coefficients are short.  A (long, short)
# product is a Kronecker product of unequal lengths.
SHORT_MAX = 24


def _dense(cs, lo):
    """Coefficients cs from q^lo up, with nonzero, unequal ends so the
    polynomial keeps its length and is not a run of equal coefficients."""
    cs = list(cs)
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 2
    if cs[-1] == cs[0]:
        cs[-1] *= 2
    return poly(dict(enumerate(cs, lo)))


def dense(min_size, max_size):
    return st.builds(_dense, st.lists(coefficients, min_size=min_size,
                                      max_size=max_size), offsets)


runs = st.builds(lambda n, k, lo: (q_int(n) * poly({0: k})).shift(lo),
                 st.integers(-60, 60).filter(bool),
                 st.one_of(st.sampled_from([1, -1, 7]),
                           st.integers(-BIG, BIG).filter(bool)),
                 offsets)
short = dense(2, SHORT_MAX)
long = dense(SHORT_MAX + 1, 3 * SHORT_MAX)
anything = st.one_of(runs, short, long, st.just(ZERO))

# Machine-word sizes in bits that bound a Kronecker slot.
WORD_BITS = (8, 16, 32, 64)


def _word_operand(cs, size, top, lo):
    """Coefficients cs in [0, 2^size) from q^lo up, with cs[top] raised to
    exactly size bits and nonzero ends, not all equal (for size >= 2)."""
    cs = list(cs)
    cs[top] |= 1 << (size - 1)
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 1
    if cs.count(cs[0]) == len(cs):
        cs[-1] = 2 if cs[-1] == 1 else 1
    return poly(dict(enumerate(cs, lo)))


@st.composite
def word_operands(draw):
    """Nonnegative dense (a, b) whose slot bound
    bits(max a) + bits(max b) + bitlen(min(len a, len b)) lies within two
    bits of a machine-word size, on either side of it."""
    bound = draw(st.sampled_from(WORD_BITS)) + draw(st.integers(-2, 2))
    # at most bound - 4 bits for bitlen(min len), so each size is >= 2
    short_len = draw(st.integers(2, min(3 * SHORT_MAX, 2 ** (bound - 5))))
    long_len = draw(st.integers(short_len, 3 * SHORT_MAX))
    rest = bound - short_len.bit_length()
    sa = draw(st.integers(2, rest - 2))
    lengths = draw(st.permutations([short_len, long_len]))
    return tuple(
        _word_operand(draw(st.lists(st.integers(0, 2 ** size - 1),
                                    min_size=length, max_size=length)),
                      size, draw(st.integers(0, length - 1)), draw(offsets))
        for length, size in zip(lengths, (sa, rest - sa)))


# A run on either side selects the window path: "run" pairs a run with
# anything, so the run is the shorter factor of some pairs and the longer
# of others.  Two non-runs (dense never draws a run) take Kronecker, in
# byte slots for the signed operands of "kronecker-short" and "kronecker"
# and mostly in machine-word slots for "kronecker-words".
PATHS = {"run": st.tuples(anything, runs),
         "kronecker-short": st.tuples(long, short),
         "kronecker": st.tuples(long, long),
         "kronecker-words": word_operands()}
rationals = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                      st.integers(1, 60))
q_int_args = st.integers(-40, 40).filter(bool)


def to_sympy(p):
    """(lo, P) with p = q^lo P(q) and P a sympy polynomial over ZZ."""
    if not p:
        return 0, sympy.Poly(0, Q, domain="ZZ")
    lo = p.min_exp()
    return lo, sympy.Poly.from_dict({(e - lo,): c for e, c in p.terms.items()},
                                    Q, domain="ZZ")


def from_sympy(lo, sp):
    return poly({lo + i: int(c) for (i,), c in sp.terms()})


def oracle_product(a, b):
    (la, pa), (lb, pb) = to_sympy(a), to_sympy(b)
    return from_sympy(la + lb, pa * pb)


def oracle_sum(a, b):
    """a + b by sympy, both shifted up to the lowest exponent either has."""
    parts = [to_sympy(p) for p in (a, b) if p]
    lo = min((e for e, _ in parts), default=0)
    total = sympy.Poly(0, Q, domain="ZZ")
    for e, poly in parts:
        total += poly * sympy.Poly(Q ** (e - lo), Q, domain="ZZ")
    return from_sympy(lo, total)


def oracle_neg(p):
    lo, poly = to_sympy(p)
    return from_sympy(lo, -poly)


def oracle_divides(a, b):
    """Does b divide a in Z[q, 1/q]?  Both are shifted to polynomials with a
    nonzero constant term; then b | a iff the rational quotient has integer
    coefficients and no remainder."""
    (_, pa), (_, pb) = to_sympy(a), to_sympy(b)
    quot, rem = pa.div(pb)
    return rem.is_zero and all(c.is_integer for c in quot.coeffs())


@pytest.mark.parametrize("path", PATHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_product(path, data):
    a, b = data.draw(PATHS[path])
    assert a * b == oracle_product(a, b)
    assert b * a == oracle_product(a, b)


def _top_heavy(size, length):
    """length - 1 coefficients 2^size - 1, then a 1."""
    return poly(dict(enumerate([2 ** size - 1] * (length - 1) + [1])))


@pytest.mark.parametrize("bound", [w + extra for w in WORD_BITS
                                   for extra in (0, 1)])
def test_product_at_slot_bound(monkeypatch, bound):
    # Length 7 (bitlen 3) and sizes summing to bound - 3 give a slot bound
    # of bound.  The largest coefficient, 6 (2^sa - 1)(2^sb - 1), needs all
    # bound bits for every bound but 8, so a slot one word too narrow, or
    # a bound without its length term, overflows.
    sa = (bound - 3) // 2
    a, b = _top_heavy(sa, 7), _top_heavy(bound - 3 - sa, 7)
    byte_slots = record_products(monkeypatch, "_mul_kronecker_bytes")
    assert a * b == oracle_product(a, b)
    widest = max((8 * size for _, size in qcore._WORDS), default=0)
    assert bool(byte_slots) == (bound > widest)


@st.composite
def sum_operands(draw, case):
    """(a, b) whose supports overlap, lie apart (b above a), or whose sum
    cancels at the low end, the high end, both, or everywhere."""
    a, b = draw(anything), draw(anything)
    if not (a and b):
        return a, b
    lo, hi = a.min_exp(), a.max_exp()
    if case == "overlapping":
        return a, b.shift(draw(st.integers(lo, hi)) - b.min_exp())
    if case == "disjoint":
        return a, b.shift(hi + draw(st.integers(1, 40)) - b.min_exp())
    # b = t - a for the terms t of a + b off the chosen ends of a's span
    depth = draw(st.integers(0, 3))
    ends = draw(st.sampled_from(["low", "high", "both", "all"]))
    keep = {"low": lambda k: k > lo + depth,
            "high": lambda k: k < hi - depth,
            "both": lambda k: lo + depth < k < hi - depth,
            "all": lambda k: False}[ends]
    target = poly({k: x for k, x in oracle_sum(a, b).terms.items()
                          if keep(k)})
    return a, oracle_sum(target, oracle_neg(a))


SUMS = {case: sum_operands(case)
        for case in ("overlapping", "disjoint", "cancelling")}


@pytest.mark.parametrize("case", SUMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sum(case, data):
    # both orders: with b above a, b + a pads the working list at the front
    a, b = data.draw(SUMS[case])
    assert a + b == b + a == oracle_sum(a, b)
    assert a - b == oracle_sum(a, oracle_neg(b))
    assert b - a == oracle_sum(b, oracle_neg(a))


@pytest.mark.parametrize("path", PATHS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_exact_division_of_product(path, data):
    a, b = data.draw(PATHS[path])
    assume(b)
    assert laurent_exact_div(oracle_product(a, b), b) == a


@given(anything, st.one_of(runs, short, long), st.integers(-40, 120))
@settings(max_examples=60, deadline=None)
def test_inexact_division_raises(a, b, e):
    # b | a*b + q^e only if b is a unit, that is, a monomial +-q^k
    assume(len(b.terms) > 1 or abs(b.coeffs[0]) > 1)
    dividend = oracle_product(a, b) + ONE.shift(e)
    assert not oracle_divides(dividend, b)
    with pytest.raises(NonExactDivision):
        laurent_exact_div(dividend, b)


@given(anything, rationals)
@settings(max_examples=60, deadline=None)
def test_eval(p, x):
    sx = sympy.Rational(x.numerator, x.denominator)
    value = sympy.Add(*[sympy.Integer(c) * sx ** e for e, c in p.terms.items()])
    assert p.eval(x) == Fraction(int(value.p), int(value.q))


def oracle_q_int_product(a_list):
    out = ONE
    for a in a_list:
        out = oracle_product(out, q_int(a))
    return out


@given(anything, st.lists(q_int_args, max_size=5))
@settings(max_examples=60, deadline=None)
def test_division_by_q_ints(p, a_list):
    dividend = oracle_product(p, oracle_q_int_product(a_list))
    assert laurent_div_q_ints(dividend, a_list) == p


@given(st.one_of(runs, short, long), st.lists(q_int_args, max_size=3),
       st.integers(-40, 40).filter(lambda b: abs(b) > 1), st.data())
@settings(max_examples=60, deadline=None)
def test_division_by_q_ints_raises(p, a_list, b, data):
    # every factor but [b]_q divides; [b]_q does not divide the dividend
    dividend = oracle_product(p, oracle_q_int_product(a_list))
    assume(not oracle_divides(dividend, q_int(b)))
    where = data.draw(st.integers(0, len(a_list)))
    with pytest.raises(NonExactDivision):
        laurent_div_q_ints(dividend, a_list[:where] + [b] + a_list[where:])


@given(anything, st.integers(-40, 40), anything, st.integers(-60, 60),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_q_int_mul_add(p, a, q, e, cancel):
    product = oracle_product(q_int(a), p)
    expected = product + q.shift(e)
    if cancel and product:
        # keep only the sum's terms strictly inside the product's span:
        # q^e q then cancels the product's lowest and highest terms
        lo, hi = product.min_exp(), product.max_exp()
        expected = poly({k: c for k, c in expected.terms.items()
                                if lo < k < hi})
        q = (expected - product).shift(-e)
    assert q_int_mul_add(p, a, q, e) == expected


@st.composite
def bounded_polys(draw):
    """(bound, polys): signed polynomials with nonnegative exponents whose
    coefficients lie in -bound..bound, the ends of that range likeliest."""
    bound = draw(st.one_of(st.integers(1, 300), st.integers(1, BIG)))
    coeff = st.one_of(st.sampled_from([bound, -bound, 0]),
                      st.integers(-bound, bound))
    one = st.builds(lambda cs, lo: poly(dict(enumerate(cs, lo))),
                    st.lists(coeff, max_size=40), st.integers(0, 30))
    return bound, draw(st.lists(one, min_size=1, max_size=4))


@given(bounded_polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_pack_and_unpack_at_point(case, data):
    # Each polynomial's integer is its value at q = X = 2^B, and the
    # balanced-digit decoder gives the polynomial back; so does it for any
    # digits in [-X/2, X/2).
    bound, polys = case
    bits, values = qcore.pack_at_point(bound, polys)
    x = 2 ** bits
    for p, value in zip(polys, values):
        p_lo, p_sympy = to_sympy(p)
        assert value == (p_sympy.eval(x) * x ** p_lo if p else 0)
        assert qcore.unpack_at_point(bits, value) == p
    # a top digit of +-1 over lower digits at the other end of the range
    # gives a value under X^d / 2 that still takes d + 1 digits
    digits = data.draw(st.one_of(
        st.lists(st.one_of(st.sampled_from([x // 2 - 1, -x // 2]),
                           st.integers(-x // 2, x // 2 - 1)), max_size=12),
        st.builds(lambda d, top: [-x // 2 if top > 0 else x // 2 - 1] * d
                  + [top], st.integers(1, 6), st.sampled_from([1, -1]))))
    wide = poly(dict(enumerate(digits)))
    assert qcore.unpack_at_point(bits, sum(
        c * x ** e for e, c in enumerate(digits))) == wide


# Indices a of [a]_q for the product at one point: 0, 1, and each power of
# two up to 256 with its neighbours, where the top-down shift-and-add
# pass changes its number of steps.
Q_INT_INDICES = sorted({0, 1} | {x for e in range(1, 9)
                                 for x in (2 ** e - 1, 2 ** e, 2 ** e + 1)})


@given(bounded_polys(), st.one_of(st.sampled_from(Q_INT_INDICES),
                                  st.integers(0, 300)),
       st.one_of(st.just(0), st.integers(1, BIG)))
@settings(max_examples=80, deadline=None)
def test_mul_q_int_at_point(case, a, slack):
    # The integer of p at q = X times [a]_X is the integer of p [a]_q
    # there, the product by sympy, at any B that holds both; slack widens B.
    _, polys = case
    p = polys[0]
    product = oracle_product(q_int(a), p)
    bound = max([1, *map(abs, p.coeffs), *map(abs, product.coeffs)]) + slack
    bits, (x, expected) = qcore.pack_at_point(bound, [p, product])
    assert qcore.mul_q_int_at_point(x, a, bits) == expected


def test_mul_q_int_at_point_refuses_a_negative_index():
    with pytest.raises(ValueError):
        qcore.mul_q_int_at_point(5, -1, 8)
