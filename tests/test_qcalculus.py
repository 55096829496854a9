from fractions import Fraction
from math import comb, prod

import pytest

from conftest import (alternating_sum, alternating_terms,
                      classical_whitney_recurrence, diff_heads, l1,
                      operator_rows, operator_sides, poly, power,
                      q_binomial_rows, q_power_table, stretch)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qwhitney import WhitneyParams, q_diff_heads, q_int, w, w_table
from qwhitney import qcalculus, qcore, series, verify
from qwhitney.qcore import ONE, ZERO
from qwhitney.whitney import normalizer_factors

PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def power_values(c: int, n: int, h: int, k: int, x: int) -> list:
    """The values of f(x) = [x + c]_q^n at the k+1 nodes x, x+h, ..., x+kh."""
    return [power(q_int(x + i * h + c), n) for i in range(k + 1)]


class TestPowerTable:
    def test_values_equal_powers(self):
        for m in (1, 2, 3):
            for r in (0, 1, 2):
                table = q_power_table(r, m, 7, 9)
                assert len(table) == 10
                for n, values in enumerate(table):
                    assert values == tuple(power_values(r, n, m, 6, 0))

    def test_route_values(self):
        # the values the explicit suite reads for (m, r) = (2, 1), nodes
        # x = 0, 2, 4, 6: [x+1]_q^n, and the q-Pascal rows in base q^2
        table = q_power_table(1, 2, 4, 6)
        assert len(table) == 7 and len(table[5]) == 4
        assert table[5][3] == power(q_int(7), 5)
        rows = q_binomial_rows(3, 2)
        assert [len(row) for row in rows] == [1, 2, 3, 4]
        assert rows[3][1] == stretch(q_binomial_rows(3)[3][1], 2)


class TestOnePassHeads:
    def test_heads_equal_each_order(self):
        # every head of one pass of order 5 against the order-k difference
        # by a pass of its own and by the alternating sum
        for b in (1, 2, 3):
            for h in (1, 2):
                for c in (-2, 0, 3):
                    for n in (0, 2, 4):
                        for x in (-1, 0, 2):
                            values = power_values(c, n, h, 5, x)
                            heads = diff_heads(values, b)
                            assert heads == [diff_heads(values[:k + 1], b)[k]
                                             for k in range(6)]
                            assert heads == [alternating_sum(
                                values[:k + 1], b, q_binomial_rows(k, b)[-1])
                                for k in range(6)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_diff_heads([], 1, 8)

    def test_shared_values_give_the_same_cells(self):
        # one power table and one q-Pascal triangle for rows 0..7 serve
        # every row of both forms
        for p in PARAM_GRID:
            explicit, newton = operator_rows(p, 7)
            for n in range(8):
                assert newton[n] == [w(p, n, k) for k in range(n + 1)]
                assert explicit[n] == newton[n]


class TestQDifference:
    def test_order_zero_is_identity(self):
        for x in (-2, 0, 3):
            values = power_values(2, 3, 1, 0, x)
            assert diff_heads(values, 1) == values
            assert alternating_sum(
                values, 1, q_binomial_rows(0)[-1]) == values[0]

    def test_constant_annihilated(self):
        values = power_values(0, 0, 1, 1, 0)
        assert diff_heads(values, 1)[1] == ZERO
        assert alternating_sum(
            values, 1, q_binomial_rows(1)[-1]) == ZERO

    def test_first_difference_of_q_int(self):
        values = power_values(0, 1, 1, 1, 0)
        assert diff_heads(values, 1)[1] == ONE
        assert alternating_sum(
            values, 1, q_binomial_rows(1)[-1]) == ONE

    def test_routes_agree_spot_grid(self):
        for k in range(5):
            for h in (1, 2):
                for b in (1, 3):
                    for c in (-2, 0, 3):
                        for n in (0, 2, 3):
                            for x in (-1, 0, 2):
                                values = power_values(c, n, h, k, x)
                                assert diff_heads(values, b)[k] == \
                                    alternating_sum(
                                        values, b, q_binomial_rows(k, b)[-1])


class TestExplicitFormula:
    # the alternating sum over [k]_{q^m}! [m]_q^k
    def test_hand_value(self):
        explicit, _ = operator_rows(WhitneyParams(1, 1), 2)
        assert explicit[2][1] == poly({1: 2, 2: 1})

    def test_column_zero(self):
        for p in PARAM_GRID:
            explicit, _ = operator_rows(p, 4)
            for n in range(5):
                assert explicit[n][0] == power(q_int(p.r), n)

    def test_diagonal(self):
        for p in PARAM_GRID:
            explicit, _ = operator_rows(p, 4)
            for n in range(5):
                exp = p.m * comb(n, 2) + n * p.r
                assert explicit[n][n] == ONE.shift(exp)

    def test_matches_recurrence(self):
        for p in PARAM_GRID:
            explicit, _ = operator_rows(p, 7)
            for n in range(8):
                assert explicit[n] == [w(p, n, k) for k in range(n + 1)]

    def test_classical_limit(self):
        # at q=1 this is the classical alternating-sum formula
        for p in PARAM_GRID:
            explicit, _ = operator_rows(p, 7)
            for n in range(8):
                for k in range(n + 1):
                    v = explicit[n][k].eval(Fraction(1))
                    assert v == classical_whitney_recurrence(p.m, p.r, n, k)


class TestNewtonCoefficients:
    # the operator product's heads over [k]_{q^m}! [m]_q^k
    def test_degree_zero(self):
        _, newton = operator_rows(WhitneyParams(1, 1), 0)
        assert newton == [[ONE]]

    def test_row_two(self):
        _, newton = operator_rows(WhitneyParams(1, 1), 2)
        assert newton[2] == [ONE, poly({1: 2, 2: 1}), ONE.shift(3)]

    def test_matches_recurrence(self):
        p = WhitneyParams(2, 0)
        _, newton = operator_rows(p, 3)
        assert newton[3] == [w(p, 3, k) for k in range(4)]


class TestRouteIndependence:
    # r >= 1 keeps every W[n,k] nonzero, so a flipped sign always shows
    GRID = {"m": [1, 2], "r": [1, 2], "nmax": 4}
    CELLS = 4 * sum(n + 1 for n in range(5))

    def test_newton_cell_survives_a_broken_alternating_sum(self, monkeypatch):
        terms = qcalculus.q_binomial_terms
        monkeypatch.setattr(qcalculus, "q_binomial_terms",
                            lambda *args: [-t for t in terms(*args)])
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * self.CELLS
        assert [f.identity for f in res.failures] == \
            ["explicit"] * self.CELLS

    def test_explicit_cell_survives_a_broken_operator_product(self,
                                                              monkeypatch):
        heads = qcalculus.q_diff_heads
        monkeypatch.setattr(qcalculus, "q_diff_heads",
                            lambda *args: [-d for d in heads(*args)])
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * self.CELLS
        assert [f.identity for f in res.failures] == ["newton"] * self.CELLS


class TestValuesBelowQToTheZero:
    """A W with a negative exponent packs as None, and the values and
    terms are rolled from 1; a value rolled off by a power of q, or a W
    below q^0, fails its cells on their merits, with exact side texts,
    and nothing raises."""

    GRID = {"m": [1, 2], "r": [1], "nmax": 3}

    def test_rolled_values(self, monkeypatch):
        # every roll multiplies by q [a]_q, so every value and term of row
        # n is q^n times the true one, and each cell of rows 1..3 fails
        # both identities with q^n W against W
        right = qcore.mul_q_int_at_point
        monkeypatch.setattr(verify, "mul_q_int_at_point",
                            lambda x, a, bits: right(x, a, bits) << bits)
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * 2 * 10
        assert len(res.failures) == 2 * 2 * 9
        for f in res.failures:
            p = WhitneyParams(f.params["m"], f.params["r"])
            n, k = f.params["n"], f.params["k"]
            assert (f.lhs, f.rhs) == (str(w(p, n, k).shift(n)),
                                      str(w(p, n, k)))

    def test_w_values(self, monkeypatch):
        right = verify.w_table
        monkeypatch.setattr(verify, "w_table", lambda p, nmax: [
            [x.shift(-1) for x in row] for row in right(p, nmax)])
        res = verify.run_suite("explicit", self.GRID)[0]
        assert len(res.failures) == res.cells == 2 * 2 * 10
        for f in res.failures:
            p = WhitneyParams(f.params["m"], f.params["r"])
            n, k = f.params["n"], f.params["k"]
            assert (f.lhs, f.rhs) == (str(w(p, n, k)),
                                      str(w(p, n, k).shift(-1)))



def sign_free_heads(values, b: int) -> list:
    """The heads of the operator product with every pass an addition,
    g(x+h) + q^(bj) g(x): coefficient by coefficient at least as large, in
    absolute value, as the heads of any choice of signs."""
    heads = [values[0]]
    for j in range(len(values) - 1):
        values = [upper + lower.shift(b * j)
                  for lower, upper in zip(values, values[1:])]
        heads.append(values[0])
    return heads


def uncovered_cells(params, nmax: int, bound_of) -> list:
    """The cells (n, k), n <= nmax, of one family whose sides the bound
    ``bound_of(params, column, k)`` of their column, rows 0..nmax, does
    not cover.

    The sides are the alternating sum, the Newton head and W[n,k] N_k,
    each read back as a polynomial through the decoders of ``conftest``.
    A cell is covered when every coefficient of each side, and of each
    side's difference from W N_k, is within the bound, and when so is the
    L1 norm of W N_k plus that of the sum's terms, or of the sign-free
    head: any signs the routes could give the same terms and passes then
    leave a difference within the bound too.
    """
    m = params.m
    table = w_table(params, nmax)
    norms = [prod(map(q_int, normalizer_factors(params, k)), start=ONE)
             for k in range(nmax + 1)]
    bounds = [bound_of(params, column, k)
              for k, column in enumerate(columns(table, nmax))]
    sums, heads = operator_sides(params, nmax)
    powers = q_power_table(params.r, m, nmax + 1, nmax)
    rows = q_binomial_rows(nmax, m)
    uncovered = []
    for n, values in enumerate(powers):
        free = sign_free_heads(values[:n + 1], m)
        for k in range(n + 1):
            target = table[n][k] * norms[k]
            sides = (sums[n][k], heads[n][k], target,
                     sums[n][k] - target, heads[n][k] - target)
            terms = alternating_terms(values[:k + 1], m, rows[k])
            widest = max(max(map(abs, x.coeffs), default=0) for x in sides)
            reach = max(sum(map(l1, terms)), l1(free[k])) + l1(target)
            if max(widest, reach) > bounds[k]:
                uncovered.append((n, k))
    return uncovered


def columns(table, kmax: int) -> list:
    """Columns k = 0..kmax of the rows ``table`` of W, each with one entry
    per row, 0 past the end of its row."""
    return [[row[k] if k < len(row) else ZERO for row in table]
            for k in range(kmax + 1)]


def uncovered_egf_cells(params, nmax: int, kmax: int, bound_of) -> list:
    """The cells (n, k), n <= nmax, k <= kmax, of one family whose sides
    the bound ``bound_of(params, column, k)`` of their column does not
    cover.

    The sides are the numerator sum_j (-1)^(k-j) q^(m C(k-j,2))
    [k j]_{q^m} [jm+r]_q^n and W[n,k] times the normalizer, both built as
    polynomials from the q-Pascal rows of ``conftest``.  A cell is covered
    when every coefficient of each side, and of their difference, is
    within the bound, and when so is the L1 norm of W N_k plus those of
    the numerator's terms: any signs the terms could take then leave a
    difference within the bound too.
    """
    m, r = params
    uncovered = []
    for k, column in enumerate(columns(w_table(params, nmax), kmax)):
        bound = bound_of(params, column, k)
        norm = prod(map(q_int, normalizer_factors(params, k)), start=ONE)
        binoms = q_binomial_rows(k, m)[-1]
        for n, v in enumerate(column):
            terms = [(b * power(q_int(j * m + r), n)).shift(m * comb(k - j, 2))
                     for j, b in enumerate(binoms)]
            lhs = sum((-t if (k - j) % 2 else t for j, t in enumerate(terms)),
                      ZERO)
            target = v * norm
            widest = max(max(map(abs, x.coeffs), default=0)
                         for x in (lhs, target, lhs - target))
            reach = sum(map(l1, terms)) + l1(target)
            if max(widest, reach) > bound:
                uncovered.append((n, k))
    return uncovered


def unweighted_bound(params, column, k):
    """``qcalculus.alternating_bound`` without its C(k,j) weights: a
    planted fault, too small for the terms of every column k >= 3.  At
    k = 2, m = 1, r = 0 it still covers them: the j = 0 term it keeps,
    max(0, 1)^N = 1, makes up for the one missing weight C(2,1) - 1."""
    m, r = params
    return (sum(max(j * m + r, 1) ** (len(column) - 1) for j in range(k + 1))
            + prod(normalizer_factors(params, k)) * max(map(l1, column)))


families = st.builds(WhitneyParams, st.integers(1, 12), st.integers(0, 15))


class TestAlternatingBound:
    """``qcalculus.alternating_bound`` sets the point at which the explicit
    suite compares both forms of every cell, and the EGF check the two
    sides of every cell of a column; each comparison is exact only if the
    bound covers both sides and their difference.  A bound too small
    still passes every clean suite, so these tests, not suite passes, are
    the evidence that it is large enough.

    The planted fault drops the C(k,j) weights; it is drawn with k >= 3,
    as at k = 2, m = 1, r = 0 it covers every side (``unweighted_bound``).
    """

    @given(families, st.integers(0, 5))
    @example(WhitneyParams(1, 0), 0)
    @example(WhitneyParams(1, 0), 1)
    @example(WhitneyParams(1, 0), 2)
    @example(WhitneyParams(1, 0), 5)
    @example(WhitneyParams(12, 15), 5)
    @example(WhitneyParams(2, 9), 4)
    @settings(max_examples=20, deadline=None)
    def test_bound_covers_every_explicit_side(self, params, nmax):
        assert uncovered_cells(params, nmax,
                               qcalculus.alternating_bound) == []

    @given(families, st.integers(0, 6), st.integers(0, 4))
    @example(WhitneyParams(1, 0), 0, 4)
    @example(WhitneyParams(1, 0), 1, 4)
    @example(WhitneyParams(1, 0), 2, 4)
    @example(WhitneyParams(1, 0), 6, 4)
    @example(WhitneyParams(12, 15), 6, 4)
    @example(WhitneyParams(2, 9), 6, 4)
    @settings(max_examples=20, deadline=None)
    def test_bound_covers_every_egf_side(self, params, nmax, kmax):
        assert uncovered_egf_cells(params, nmax, kmax,
                                   qcalculus.alternating_bound) == []

    @given(families, st.integers(3, 5))
    @example(WhitneyParams(1, 0), 3)
    @settings(max_examples=20, deadline=None)
    def test_planted_bound_is_caught_explicit(self, params, nmax):
        # without C(k,j) the bound of column 3 falls short of the terms
        # at n = nmax, whose L1 norms sum to sum_j C(3,j) (jm+r)^nmax
        assert uncovered_cells(params, nmax, unweighted_bound)

    @given(families, st.integers(0, 6), st.integers(3, 4))
    @example(WhitneyParams(1, 0), 0, 3)
    @example(WhitneyParams(1, 0), 6, 3)
    @settings(max_examples=20, deadline=None)
    def test_planted_bound_is_caught_egf(self, params, nmax, kmax):
        assert uncovered_egf_cells(params, nmax, kmax, unweighted_bound)

    @staticmethod
    def recorded_calls(monkeypatch, module) -> list:
        """The (params, len(column), k) of each call of the bound where
        ``module`` reads it, in call order."""
        calls, right = [], qcalculus.alternating_bound

        def recorded(params, column, k):
            calls.append((params, len(column), k))
            return right(params, column, k)

        monkeypatch.setattr(module, "alternating_bound", recorded)
        return calls

    def test_suite_reads_the_bound(self, monkeypatch):
        # once per column 0..nmax of each family, over rows 0..nmax
        calls = self.recorded_calls(monkeypatch, qcalculus)
        assert verify.run_suite("explicit", {"m": [2], "r": [0, 3],
                                             "nmax": 4})[0].ok
        assert calls == [(WhitneyParams(2, r), 5, k)
                         for r in (0, 3) for k in range(5)]

    def test_egf_check_reads_the_bound(self, monkeypatch):
        # once per column
        calls = self.recorded_calls(monkeypatch, series)
        p = WhitneyParams(3, 2)
        assert series.egf_check(p, w_table(p, 5), 3) == [[True] * 6] * 4
        assert calls == [(p, 6, k) for k in range(4)]
