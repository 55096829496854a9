from fractions import Fraction
from math import comb

import pytest

from conftest import (alternating_sum, classical_whitney_recurrence,
                      diff_heads, operator_rows, poly, power)
from qwhitney import (WhitneyParams, q_binomial_rows, q_diff_heads, q_int,
                      q_power_table, w)
from qwhitney import qcalculus, verify
from qwhitney.qcore import ONE, ZERO

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
        assert rows[3][1] == q_binomial_rows(3)[3][1].stretch(2)


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
        alternating = qcalculus.q_binomial_alternating_sum
        monkeypatch.setattr(qcalculus, "q_binomial_alternating_sum",
                            lambda *args: -alternating(*args))
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
    """A value with a negative exponent, in the power table or in W, is
    packed at the family's least exponent: its cells fail on their
    merits, with exact side texts, and nothing raises."""

    GRID = {"m": [1, 2], "r": [1], "nmax": 3}

    def test_power_table_values(self, monkeypatch):
        # every value of row n is q^-n times the true one, so each cell of
        # rows 1..3 fails both identities with q^-n W against W
        monkeypatch.setattr(qcalculus, "q_int", lambda a: q_int(a).shift(-1))
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * 2 * 10
        assert len(res.failures) == 2 * 2 * 9
        for f in res.failures:
            p = WhitneyParams(f.params["m"], f.params["r"])
            n, k = f.params["n"], f.params["k"]
            assert (f.lhs, f.rhs) == (str(w(p, n, k).shift(-n)),
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
