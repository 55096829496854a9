import json
import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (gauss_product_check, pairs, poly, q_binomial_inverse,
                      q_binomial_rows, q_binomial_transform, q_factorial,
                      random_laurent, stretch)
from qwhitney import (LaurentPoly, DivisionByZero, EvalAtZero,
                      NonExactDivision, laurent_div_q_ints, laurent_exact_div,
                      q_int, q_int_mul_add)
import qwhitney
from qwhitney import qcalculus, qcore
from qwhitney.qcore import ONE, ZERO, poly_sum

laurent_strategy = st.dictionaries(
    st.integers(min_value=-5, max_value=8),
    st.integers(min_value=-20, max_value=20),
    max_size=6,
).map(poly)

# Negative exponents, interior zeros, negative and 400-bit coefficients; an
# empty or all-zero list gives the zero polynomial.
json_strategy = st.builds(
    lambda cs, lo: poly(dict(enumerate(cs, lo))),
    st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-2 ** 400, 2 ** 400)), max_size=12),
    st.integers(-30, 30))


class TestLaurentPoly:
    def test_canonical_form_prunes_zeros(self):
        p = poly({0: 1, 3: 0, -2: 0})
        assert p.terms == {0: 1}

    def test_equality_is_structural(self):
        assert poly({0: 1, 2: 1}) == poly({2: 1, 0: 1})
        assert poly({0: 1}) != poly({0: 2})

    def test_json_pairs_roundtrip(self):
        p = poly({2: 1, 0: 1})
        assert json.loads(p.to_json()) == pairs(p) == [[0, "1"], [2, "1"]]
        assert poly({e: int(c) for e, c in pairs(p)}) == p

    @given(json_strategy)
    @example(ZERO)
    @example(poly({-7: -(2 ** 300 + 1), -6: 0, 0: 0, 3: 2 ** 310}))
    @settings(max_examples=200, deadline=None)
    def test_to_json_is_dumps_of_pairs(self, p):
        assert p.to_json() == json.dumps(pairs(p))

    @pytest.mark.parametrize("lo, coeffs", [
        # top exponent at the template's bucket and cap edges
        (0, [1] * 256), (0, [1] * 257), (0, [2] * 258),
        (255, [3]), (256, [3]), (257, [3]),
        (8000, [1] * 192), (8000, [1] * 193), (8000, [1] * 194),
        (8191, [4]), (8192, [4]), (8193, [4]),
        # lowest exponent near 10^5, past the cap
        (10 ** 5 - 1, [1, 2, 3]), (10 ** 5, [5]),
        # a negative lowest exponent, interior zeros, a single term
        (-3, [1, 2, 3, 4, 5, 6]), (-1, [7]), (0, [1, 0, 1]),
        (250, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]), (0, [9]),
        # negative and 400-bit coefficients
        (0, [-1, 2, -3]), (17, [2 ** 400 - 1, -(2 ** 400), 5]),
        (0, [-(2 ** 399)] * 300),
    ])
    def test_to_json_template_edges(self, lo, coeffs):
        p = poly(dict(enumerate(coeffs, lo)))
        assert p.to_json() == json.dumps(pairs(p))

    def test_to_json_same_before_and_after_a_larger_template(self):
        qcore._json_template.cache_clear()
        small = poly({0: 3, 1: -2 ** 200, 2: 1})
        before = small.to_json()
        poly({8191: 1, 0: 1, **{e: e for e in range(1, 8191)}}).to_json()
        assert small.to_json() == before == json.dumps(pairs(small))

    def test_shift(self):
        assert q_int(3).shift(2) == poly({2: 1, 3: 1, 4: 1})

    @given(laurent_strategy, laurent_strategy, laurent_strategy)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_eval_at_zero_rejected(self):
        with pytest.raises(EvalAtZero):
            q_int(3).eval(Fraction(0))


class TestSurface:
    # The ring is what the library calls: polynomial operands only, no
    # public constructor, and no method only tests would reach.
    KEPT = {"terms", "min_exp", "max_exp", "shift", "coeffs", "value_parts",
            "eval", "to_json"}
    GONE = {"__init__", "__pow__", "__radd__", "__rsub__", "__rmul__",
            "stretch"}

    @pytest.mark.parametrize("op", [lambda p: p * 3, lambda p: 3 * p,
                                    lambda p: p + 1, lambda p: 1 - p])
    def test_int_operand_is_a_type_error(self, op):
        with pytest.raises(TypeError):
            op(q_int(3))

    def test_only_the_kept_names(self):
        public = {n for n in dir(LaurentPoly) if not n.startswith("_")}
        assert public == self.KEPT
        assert not self.GONE & set(vars(LaurentPoly))
        assert not hasattr(qwhitney, "q_factorial")
        assert not hasattr(qcore, "q_factorial")
        assert not hasattr(qwhitney, "q_binomial_rows")
        assert not hasattr(qcore, "q_binomial_rows")


class TestQInt:
    def test_zero_is_empty_sum(self):
        assert q_int(0) == ZERO

    def test_positive(self):
        assert q_int(3) == poly({0: 1, 1: 1, 2: 1})

    def test_negative(self):
        assert q_int(-2) == poly({-2: -1, -1: -1})

    def test_matches_rational_form(self):
        # [a]_q = (1 - q^a)/(1 - q) for every integer a
        one_minus_q = ONE - ONE.shift(1)
        for a in range(-6, 7):
            num = ONE - ONE.shift(a)
            assert q_int(a) * one_minus_q == num

    def test_shift_identity(self):
        # [t-k]_q = q^(-k) ([t]_q - [k]_q), the defining extension rule
        for t in range(-10, 11):
            for k in range(-10, 11):
                assert q_int(t - k) == (q_int(t) - q_int(k)).shift(-k)


class TestQFactorial:
    def test_boundary(self):
        assert q_factorial(0) == ONE
        assert q_factorial(1) == ONE

    def test_three(self):
        assert q_factorial(3) == poly({0: 1, 1: 2, 2: 2, 3: 1})

    def test_value_at_one(self):
        for n in range(13):
            assert q_factorial(n).eval(Fraction(1)) == factorial(n)


def pascal_rows(kmax: int, b: int, bits: int) -> list:
    """Rows 0..kmax of the q-Pascal triangle in base q^b as integers at
    q = 2^bits, each from the last by ``qcalculus.q_binomial_row``."""
    rows = [qcalculus.q_binomial_row([], b, bits)]
    for _ in range(kmax):
        rows.append(qcalculus.q_binomial_row(rows[-1], b, bits))
    return rows


def quotient(n: int, j: int, b: int) -> LaurentPoly:
    """[n j]_{q^b} by the closed formula [n]! / ([j]! [n-j]!) in base q,
    then q -> q^b."""
    return stretch(laurent_exact_div(
        q_factorial(n), q_factorial(j) * q_factorial(n - j)), b)


class TestQBinomial:
    # qcalculus.q_binomial_row at one point, read back as polynomials
    def test_edge_cases(self):
        row = pascal_rows(5, 1, 8)[5]
        assert len(row) == 6 and row[0] == row[5] == 1

    def test_four_choose_two(self):
        assert qcore.unpack_at_point(8, pascal_rows(4, 1, 8)[4][2]) == \
            poly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_base_exponent(self):
        assert qcore.unpack_at_point(8, pascal_rows(2, 2, 8)[2][1]) == \
            poly({0: 1, 2: 1})

    def test_value_at_one(self):
        # at bits = 0 the point is q = 1, where [n k]_{q^b} is C(n, k)
        for b in (1, 2, 3):
            for n, row in enumerate(pascal_rows(12, b, 0)):
                assert row == [comb(n, k) for k in range(n + 1)]
            for n, row in enumerate(q_binomial_rows(10, b)):
                assert [x.eval(Fraction(1)) for x in row] == \
                    [comb(n, k) for k in range(n + 1)]

    def test_pascal_identity(self):
        # the mirrored step [n k] = q^(b(n-k)) [n-1 k-1] + [n-1 k], which
        # neither the row builder nor the oracle takes
        for b in (1, 2, 3):
            rows = pascal_rows(10, b, 16)
            oracle = q_binomial_rows(10, b)
            for n in range(1, 11):
                for k in range(1, n):
                    assert rows[n][k] == \
                        (rows[n - 1][k - 1] << 16 * b * (n - k)) \
                        + rows[n - 1][k]
                    assert oracle[n][k] == \
                        oracle[n - 1][k - 1].shift(b * (n - k)) \
                        + oracle[n - 1][k]


class TestQBinomialRow:
    def test_matches_factorial_quotient(self):
        # rows 0..12 in base q, q^2 and q^3 against the closed formula
        # packed at the point, and the oracle's rows against it as
        # polynomials
        for b in (1, 2, 3):
            bits = qcore.pack_at_point(2 ** 12, [])[0]
            rows = pascal_rows(12, b, bits)
            oracle = q_binomial_rows(12, b)
            assert len(rows) == len(oracle) == 13
            for n, (row, polys) in enumerate(zip(rows, oracle)):
                quotients = [quotient(n, j, b) for j in range(n + 1)]
                assert row == qcore.pack_at_point(2 ** 12, quotients)[1]
                assert polys == quotients

    def test_row_zero_from_nothing(self):
        for b in (1, 2, 3):
            for bits in (0, 8, 24):
                assert qcalculus.q_binomial_row([], b, bits) == [1]
                assert qcalculus.q_binomial_row([1], b, bits) == [1, 1]


class TestExactDivision:
    def test_perfect_square(self):
        p = ONE + ONE.shift(1)
        assert laurent_exact_div(p * p, p) == p

    def test_monomial_divisor(self):
        a = poly({2: 1, 1: 1})
        assert laurent_exact_div(a, ONE.shift(1)) == poly({1: 1, 0: 1})

    def test_inexact_rejected(self):
        with pytest.raises(NonExactDivision):
            laurent_exact_div(poly({0: 1, 2: 1}), poly({0: 1, 1: 1}))

    def test_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZero):
            laurent_exact_div(ONE, ZERO)

    def test_product_roundtrip(self):
        rng = random.Random(7)
        checked = 0
        while checked < 50:
            a = random_laurent(rng)
            b = random_laurent(rng)
            if not b:
                continue
            assert laurent_exact_div(a * b, b) == a
            checked += 1


class TestDivisionByQInts:
    def test_factorial_by_its_factors(self):
        for n in range(9):
            assert laurent_div_q_ints(q_factorial(n), range(1, n + 1)) == ONE
            if n:
                assert laurent_div_q_ints(q_factorial(n), range(1, n)) == \
                    q_int(n)

    def test_negative_factors(self):
        x = poly({-3: 2, 1: -5, 4: 7})
        for a_list in ([-1], [-4, 3], [2, -2, -7]):
            product = ONE
            for a in a_list:
                product = product * q_int(a)
            assert laurent_div_q_ints(x * product, a_list) == x

    def test_empty_list_and_zero_dividend(self):
        x = poly({-2: 3, 5: -1})
        assert laurent_div_q_ints(x, ()) == x
        assert laurent_div_q_ints(ZERO, (3, -2)) == ZERO

    def test_inexact_rejected(self):
        with pytest.raises(NonExactDivision):
            laurent_div_q_ints(q_int(5), (2,))
        with pytest.raises(NonExactDivision):
            laurent_div_q_ints(q_int(3), (3, 3))  # longer than the dividend
        with pytest.raises(NonExactDivision):
            laurent_div_q_ints(q_int(6) + ONE, (2, 3))

    def test_zero_factor_rejected(self):
        with pytest.raises(DivisionByZero):
            laurent_div_q_ints(ONE, (2, 0))


class TestQIntMulAdd:
    def test_recurrence_step(self):
        p, q = poly({0: 1, 1: 2}), poly({3: 4})
        assert q_int_mul_add(p, 3, q, 2) == q_int(3) * p + q.shift(2)

    def test_zero_terms(self):
        q = poly({-1: 5, 2: 1})
        assert q_int_mul_add(ZERO, 4, q, 3) == q.shift(3)
        assert q_int_mul_add(q, 0, ZERO, 3) == ZERO
        assert q_int_mul_add(q, -2, ZERO, 0) == q_int(-2) * q

    def test_everything_cancels(self):
        p = poly({1: 3, 2: -1})
        assert q_int_mul_add(p, 2, -(q_int(2) * p).shift(-5), 5) == ZERO


def fold_sum(terms):
    """The sum of terms by a fold of LaurentPoly's +."""
    return reduce(add, terms, ZERO)


class TestPolySum:
    def test_random_terms(self):
        rng = random.Random(20)
        for _ in range(300):
            terms = [random_laurent(rng) for _ in range(rng.randrange(9))]
            assert poly_sum(terms) == fold_sum(terms)
            assert poly_sum(iter(terms)) == fold_sum(terms)

    def test_empty_input(self):
        assert poly_sum([]) == ZERO and poly_sum(iter(())) == ZERO

    def test_zero_terms(self):
        p = poly({-2: 3, 4: -1})
        assert poly_sum([ZERO, ZERO]) == ZERO
        assert poly_sum([ZERO, p, ZERO, p]) == fold_sum([p, p])

    def test_terms_that_cancel(self):
        p, q = poly({-3: 2, 1: 5}), poly({0: 7})
        assert poly_sum([p, q, -p, -q]) == ZERO
        # cancelling midway, then reaching past both ends of what is left
        assert poly_sum([p, -p, q.shift(-9), q.shift(9)]) == \
            q.shift(-9) + q.shift(9)

    def test_negative_and_out_of_order_offsets(self):
        terms = [poly({5: 1, 6: 2}), poly({-4: 3}), poly({0: -1, 7: 1}),
                 poly({-10: 2, -9: -2}), poly({6: -2, 5: -1})]
        assert poly_sum(terms) == fold_sum(terms) == \
            poly({-10: 2, -9: -2, -4: 3, 0: -1, 7: 1})


class TestPackAtPoint:
    def test_values_at_the_point(self):
        rng = random.Random(26)
        for _ in range(200):
            polys = [random_laurent(rng, exp_range=(0, 12))
                     for _ in range(4)]
            # the bound covers every coefficient, as its callers' do
            bound = rng.choice([9, 2 ** 6, 2 ** 40, 3 ** 90])
            bits, values = qcore.pack_at_point(bound, polys)
            assert bits % 8 == 0 and bound < 2 ** (bits - 2) <= 256 * bound
            assert values == [p.eval(Fraction(2 ** bits)) for p in polys]

    def test_zero_and_negative_exponents(self):
        assert qcore.pack_at_point(5, [ZERO, poly({-1: 1, 2: 3}), ONE]) == \
            (8, [0, None, 1])

    def test_bound_makes_the_comparison_exact(self):
        # a difference with coefficients up to the bound is told apart
        # from zero
        rng = random.Random(27)
        for _ in range(200):
            bound = rng.randrange(1, 2 ** 20)
            d = poly({e: rng.choice([-bound, bound, 0, 1])
                      for e in range(rng.randrange(1, 6))})
            p = poly({e: rng.randrange(-bound, bound) for e in range(5)})
            _, (a, b) = qcore.pack_at_point(bound, [p, p + d])
            assert (a == b) == (not d)


class TestEval:
    def test_coefficient_sum(self):
        assert q_int(5).eval(1) == 5

    def test_at_two(self):
        assert q_int(3).eval(2) == 7

    def test_negative_exponent(self):
        p = poly({0: 1, -1: 1})
        assert p.eval(Fraction(1, 2)) == 3


class TestQBinomialInversion:
    def test_delta_transforms_to_ones(self):
        delta = [ONE] + [ZERO] * 6
        assert q_binomial_transform(delta, 6) == [ONE] * 7
        assert q_binomial_inverse([ONE] * 7, 6) == delta

    def test_binomial_theorem_sequence(self):
        # g_k = q^C(k,2)  =>  f_n = prod_{i<n} (1 + q^i)
        n = 6
        g = [ONE.shift(comb(k, 2)) for k in range(n + 1)]
        f = q_binomial_transform(g, n)
        for j in range(n + 1):
            expected = ONE
            for i in range(j):
                expected = expected * (ONE + ONE.shift(i))
            assert f[j] == expected

    @given(st.lists(laurent_strategy, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, f):
        n = 8
        assert q_binomial_transform(q_binomial_inverse(f, n), n) == f
        assert q_binomial_inverse(q_binomial_transform(f, n), n) == f


class TestGaussProduct:
    def test_small_values(self):
        assert gauss_product_check(0)
        assert gauss_product_check(2)

    def test_expanded_coefficient(self):
        # x^2 coefficient of (1+x)(1+xq)(1+xq^2) is q + q^2 + q^3
        assert q_binomial_rows(3)[3][2].shift(comb(2, 2)) == \
            poly({1: 1, 2: 1, 3: 1})

    def test_up_to_ten(self):
        assert all(gauss_product_check(n) for n in range(11))
