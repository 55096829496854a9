import io
import random
from operator import floordiv
from unittest.mock import ANY

import pytest

from conftest import (closed_forms_times_2, det_cofactor, power,
                      perturb_recurrence, perturb_u_factor, poly,
                      random_laurent, stirling2_enum)
from qwhitney import (HankelSpec, WhitneyParams,
                      classical_hankel_check, degree_bound,
                      hankel_closed_forms, hankel_matrix, leading_dets,
                      lu_check, q_int, w_star)
from qwhitney import cli, hankel, qcalculus, qcore, verify
from qwhitney.hankel import bareiss, leading_minors, lu_factors
from qwhitney.qcore import ONE, ZERO, laurent_exact_div

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def block(rows, order):
    """The leading order x order block of a matrix."""
    return tuple(row[:order] for row in rows[:order])


def det_of(rows):
    """The determinant of a square Laurent matrix by one elimination."""
    return bareiss(rows, laurent_exact_div)[0]


def transform_holds(spec):
    """Does the determinant of spec's own matrix equal its closed form?"""
    closed = hankel_closed_forms(spec)
    return leading_dets(hankel_matrix(spec), closed)[-1] == closed[-1][0]


def lu_holds(spec):
    """lu_check on spec's own matrix and determinants, at every order."""
    rows = hankel_matrix(spec)
    return all(lu_check(spec, rows, leading_minors(rows, laurent_exact_div)))


def classical_holds(m, r, s, n):
    """classical_hankel_check on the family (m, r, s) to order n+1, at
    every order."""
    spec = HankelSpec(WhitneyParams(m, r), s, n)
    return all(classical_hankel_check(spec, hankel_matrix(spec)))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HankelSpec(P11, -1, 0)
        with pytest.raises(ValueError):
            HankelSpec(P11, 0, -1)


class TestMatrix:
    def test_order_zero(self):
        assert hankel_matrix(HankelSpec(P11, 2, 0)) == ((ONE,),)

    def test_entries_by_definition(self):
        spec = HankelSpec(WhitneyParams(2, 1), 1, 2)
        mat = hankel_matrix(spec)
        for i in range(3):
            for j in range(3):
                assert mat[i][j] == w_star(spec.params, 1 + i + j, 1 + j)

    def test_two_by_two_structure(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert mat[0][0] == ONE and mat[0][1] == ONE
            assert mat[1][0] == q_int(p.r)
            assert mat[1][1] == q_int(p.r) + q_int(p.m + p.r)


class TestDeterminant:
    def test_order_one(self):
        assert det_of(((q_int(3),),)) == q_int(3)

    def test_two_by_two_hand_value(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert det_of(mat) == q_int(p.m + p.r)

    def test_bareiss_matches_cofactor_random(self):
        rng = random.Random(11)
        for order in (2, 3, 4):
            for _ in range(8):
                mat = tuple(
                    tuple(random_laurent(rng, 3, (0, 2), (-4, 4))
                          for _ in range(order))
                    for _ in range(order))
                assert det_of(mat) == det_cofactor(mat)

    def test_zero_pivot_falls_back(self):
        assert det_of(((ZERO, ONE), (ONE, ZERO))) == -ONE

    def test_zero_pivots_need_no_cofactor(self):
        rng = random.Random(5)

        def entry():
            return random_laurent(rng, 3, (-1, 2), (-4, 4)) + ONE

        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[0][0] = ZERO
        lead_zero = tuple(map(tuple, rows))
        # rows 0 and 1 agree up to q in columns 0 and 1, so the second
        # pivot vanishes after the first elimination step
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[1][:2] = [x.shift(1) for x in rows[0][:2]]
        mid_zero = tuple(map(tuple, rows))
        singular = ((ONE, ZERO, q_int(2)),
                    (q_int(3), ZERO, ONE),
                    (poly({-1: 2}), ZERO, q_int(-2)))
        mats = (lead_zero, mid_zero, singular)
        expected = [det_cofactor(mat) for mat in mats]
        assert expected[2] == ZERO
        assert all(expected[:2])
        assert [det_of(mat) for mat in mats] == expected

    def test_int_zero_pivots(self):
        rows = [[0, 2, 1], [0, 0, 3], [4, 1, 1]]  # both pivots need a swap
        assert bareiss(rows, floordiv)[0] == 24
        assert bareiss([[1, 0, 2], [3, 0, 1], [5, 0, 7]], floordiv)[0] == 0

    def test_bareiss_matches_cofactor_on_grid(self):
        for p in PARAM_GRID[:4]:
            for s in range(3):
                for n in range(4):
                    mat = hankel_matrix(HankelSpec(p, s, n))
                    assert det_of(mat) == det_cofactor(mat)


class TestLeadingDets:
    FAMILIES = [(WhitneyParams(m, r), s) for m, r, s in
                ((1, 1, 0), (1, 0, 2), (2, 1, 1), (3, 2, 0), (2, 0, 3))]

    def test_pivots_are_leading_minors(self):
        for p, s in self.FAMILIES:
            spec = HankelSpec(p, s, 5)
            mat = hankel_matrix(spec)
            det, minors = bareiss(mat, laurent_exact_div)
            dets = leading_dets(mat, hankel_closed_forms(spec))
            assert len(minors) == len(dets) == 6 and dets[5] == det
            for order in range(1, 7):
                lead = block(mat, order)
                assert lead == hankel_matrix(HankelSpec(p, s, order - 1))
                assert dets[order - 1] == minors[order - 1] == det_of(lead)
                if order <= 4:
                    assert dets[order - 1] == det_cofactor(lead)

    def test_int_pivots_are_leading_minors(self):
        rows = [[2, 1, 3, 0], [4, 5, 1, 2], [1, 0, 2, 7], [3, 3, 3, 1]]
        det, minors = bareiss(rows, floordiv)
        assert det == minors[-1] and len(minors) == 4
        for order in range(1, 5):
            block = [row[:order] for row in rows[:order]]
            assert minors[order - 1] == bareiss(block, floordiv)[0]

    def test_zero_pivot_falls_back(self, monkeypatch):
        rng = random.Random(7)

        def entry():
            return random_laurent(rng, 3, (-1, 2), (-4, 4)) + ONE

        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[0][0] = ZERO
        lead_zero = tuple(map(tuple, rows))
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[1][:2] = [x.shift(1) for x in rows[0][:2]]
        mid_zero = tuple(map(tuple, rows))
        fallbacks = []
        bareiss_ = hankel.bareiss

        def counted(rows, exact_div):
            fallbacks.append(len(rows))
            return bareiss_(rows, exact_div)

        monkeypatch.setattr(hankel, "bareiss", counted)
        for mat, pivots in ((lead_zero, 1), (mid_zero, 2)):
            _, minors = bareiss(mat, laurent_exact_div)
            assert len(minors) == pivots and minors[-1] == ZERO
            fallbacks.clear()
            # no closed forms: these are not Hankel matrices
            dets = leading_dets(mat, [])
            # one pass over the matrix, then one per order past the zero
            # pivot, each on its own leading block
            assert fallbacks == [4, *range(pivots + 1, 5)]
            assert dets == [det_cofactor(block(mat, k)) for k in range(1, 5)]

    def test_singular_column_stops_the_pivots(self):
        mat = ((ZERO, ONE, q_int(2)),
               (ZERO, q_int(3), ONE),
               (ZERO, ONE, ONE))
        det, minors = bareiss(mat, laurent_exact_div)
        assert det == ZERO and minors == [ZERO]
        assert leading_dets(mat, []) == [ZERO, ZERO, ZERO]


class TestHankelTransform:
    def test_order_zero(self):
        for p in PARAM_GRID:
            assert hankel_closed_forms(HankelSpec(p, 2, 0)) == [(ONE, ())]
            assert transform_holds(HankelSpec(p, 2, 0))

    def test_two_by_two(self):
        for p in PARAM_GRID:
            assert transform_holds(HankelSpec(p, 0, 1))

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert transform_holds(HankelSpec(p, s, n))


class TestLU:
    def test_order_zero(self):
        assert lu_holds(HankelSpec(P11, 0, 0))

    def test_hand_factors(self):
        lower, upper = lu_factors(HankelSpec(P11, 0, 1))
        assert lower == ((ONE, ZERO), (q_int(1), ONE))
        assert upper == ((ONE, ONE), (ZERO, q_int(2)))
        spec = HankelSpec(P11, 0, 1)
        mat = hankel_matrix(spec)
        assert lu_check(spec, mat, [ONE, q_int(2)]) == [True, True]
        assert lu_check(spec, mat, [ONE, q_int(2) + ONE]) == [True, False]

    def test_upper_diagonal_closed_form(self):
        for p in PARAM_GRID:
            for s in range(3):
                spec = HankelSpec(p, s, 3)
                _, upper = lu_factors(spec)
                for k in range(4):
                    assert upper[k][k] == power(q_int(p.m * (s + k) + p.r), k)

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert lu_holds(HankelSpec(p, s, n))


class TestLUProduct:
    def test_leading_blocks_of_one_product(self):
        for p in PARAM_GRID[::2]:
            for s in range(3):
                family = HankelSpec(p, s, 4)
                mat = hankel_matrix(family)
                dets = leading_dets(mat, hankel_closed_forms(family))
                assert lu_check(family, mat, dets) == [True] * 5
                for n in range(5):
                    spec = HankelSpec(p, s, n)
                    assert lu_check(spec, block(mat, n + 1),
                                    dets[:n + 1]) == [True] * (n + 1)
                    # a determinant off by one fails its own order alone
                    wrong = dets[:n] + [dets[n] + ONE] + dets[n + 1:]
                    assert lu_check(family, mat, wrong) == \
                        [k != n for k in range(5)]

    def test_an_entry_fails_every_block_that_holds_it(self):
        family = HankelSpec(WhitneyParams(2, 1), 1, 3)
        mat = [list(row) for row in hankel_matrix(family)]
        dets = leading_minors(mat, laurent_exact_div)
        mat[1][2] = mat[1][2] + ONE
        assert lu_check(family, mat, dets) == [True, True, False, False]

    def test_suite_lu_cells_fail_under_a_factor_fault(self):
        grid = {"m": [1, 2], "r": [0, 1], "smax_hankel": 1, "nmax_hankel": 3}
        assert verify.run_suite("hankel", grid)[0].ok
        with perturb_u_factor():
            res = verify.run_suite("hankel", grid)[0]
        assert {f.identity for f in res.failures} == {"lu_factorization"}
        # order 1 has U = (1) either way; every larger order fails
        assert [(f.params["m"], f.params["r"], f.params["s"], f.params["n"])
                for f in res.failures] == \
            [(m, r, s, n) for m in (1, 2) for r in (0, 1) for s in (0, 1)
             for n in range(1, 4)]


def product(factors):
    """prod [a]_q over the factors."""
    out = ONE
    for a in factors:
        out = out * q_int(a)
    return out


@pytest.fixture
def divisions(monkeypatch):
    """Record every division: ("general", divisor) for laurent_exact_div,
    wherever it is bound, and ("factored", factors) for the q-integer
    division that hankel's pivot divider takes."""
    seen = []
    general, factored = qcore.laurent_exact_div, qcore.laurent_div_q_ints

    def counted_general(x, b):
        seen.append(("general", b))
        return general(x, b)

    def counted_factored(x, factors):
        seen.append(("factored", tuple(factors)))
        return factored(x, factors)

    for module in (qcore, hankel, qcalculus):
        if hasattr(module, "laurent_exact_div"):
            monkeypatch.setattr(module, "laurent_exact_div", counted_general)
    monkeypatch.setattr(hankel, "laurent_div_q_ints", counted_factored)
    return seen


# Faults planted in a family's closed forms: every product times [2]_q (the
# kill matrix's closed-form fault), and one extra factor in every order's
# list (and so in its product).
CLOSED_FORM_FAULTS = {
    "product_times_2": closed_forms_times_2,
    "extra_factor": lambda forms: [(closed * q_int(n + 2), factors + (n + 2,))
                                   for n, (closed, factors) in enumerate(forms)],
}


class TestFactoredPivots:
    FAMILIES = [(WhitneyParams(m, r), s) for m, r, s in
                ((1, 0, 0), (1, 1, 2), (2, 1, 1), (3, 2, 0))]
    GRID = {"m": [1, 2], "r": [0, 1], "smax_hankel": 1, "nmax_hankel": 4}

    def test_factors_are_the_closed_form(self):
        for p in PARAM_GRID:
            for s in range(3):
                forms = hankel_closed_forms(HankelSpec(p, s, 4))
                assert len(forms) == 5
                expected = ONE
                for n, (closed, factors) in enumerate(forms):
                    expected = expected * power(q_int(p.m * (s + n) + p.r), n)
                    assert closed == expected == product(factors)
                    assert factors == tuple(p.m * (s + k) + p.r
                                            for k in range(n + 1)
                                            for _ in range(k))
                    assert len(factors) == n * (n + 1) // 2
                    assert forms[:n + 1] == \
                        hankel_closed_forms(HankelSpec(p, s, n))

    def test_every_pivot_divided_by_its_factors(self, divisions):
        for p, s in self.FAMILIES:
            spec = HankelSpec(p, s, 4)
            mat = hankel_matrix(spec)
            closed = hankel_closed_forms(spec)
            divisions.clear()
            assert leading_dets(mat, closed)[-1] == det_cofactor(mat)
            # each list of orders 1-4 is first checked to divide its closed
            # form to 1; then steps 1, 2, 3 divide 9, 4 and 1 entries by the
            # minors of orders 1, 2 and 3
            assert [(path, product(factors)) for path, factors in divisions] \
                == [("factored", closed[order - 1][0])
                    for order, count in ((1, 1), (2, 1), (3, 1), (4, 1),
                                         (1, 9), (2, 4), (3, 1))
                    for _ in range(count)]

    # The queries benchmark's Hankel requests: per (m, r), shapes r and
    # 11 - r of (s, n) for s < 3 and 2 <= n <= 5.
    def test_hankel_requests_need_no_general_division(self, divisions):
        shapes = [(s, n) for s in range(3) for n in range(2, 6)]
        for m in (1, 2, 3):
            for r in range(6):
                for s, n in (shapes[r], shapes[11 - r]):
                    buf = io.StringIO()
                    assert cli.main(["hankel", "--m", str(m), "--r", str(r),
                                     "--s", str(s), "--n", str(n)],
                                    out=buf) == 0
                    assert buf.getvalue().endswith('"status": "PASS"}\n')
        assert divisions
        assert all(path == "factored" for path, _ in divisions)

    def test_hankel_suite_needs_no_general_division(self, divisions):
        assert verify.run_suite("hankel")[0].ok
        assert divisions
        assert all(path == "factored" for path, _ in divisions)

    def test_explicit_suite_needs_no_general_division(self, divisions):
        assert verify.run_suite("explicit")[0].ok
        assert divisions == []

    @pytest.mark.parametrize("fault", sorted(CLOSED_FORM_FAULTS))
    def test_faulty_closed_forms(self, monkeypatch, divisions, fault):
        # The elimination reads the closed forms only to choose how to
        # divide: no pivot equals a faulty product whose list divides it
        # to 1, so every division is general and the determinants stay
        # exact.  The check reads them as the expected value and fails.
        plant = CLOSED_FORM_FAULTS[fault]
        right = hankel.hankel_closed_forms
        for p, s in self.FAMILIES:
            spec = HankelSpec(p, s, 3)
            mat = hankel_matrix(spec)
            divisions.clear()
            dets = leading_dets(mat, plant(right(spec)))
            assert dets == [det_cofactor(block(mat, k)) for k in range(1, 5)]
            # three lists checked; then step 1 divides 4 entries by the
            # unit pivot and step 2 one entry by the pivot of order 2
            assert [path for path, _ in divisions] == \
                ["factored"] * 3 + ["general"] * 5
            assert divisions[-1] == ("general", dets[1])
        monkeypatch.setattr(hankel, "hankel_closed_forms",
                            lambda spec: plant(right(spec)))
        res = verify.run_suite("hankel", self.GRID)[0]
        assert {f.identity for f in res.failures} == {"hankel_transform"}
        assert len(res.failures) == res.cells // 3

    def test_perturbed_recurrence_takes_the_general_path(self, divisions):
        with perturb_recurrence():
            for p, s in self.FAMILIES:
                spec = HankelSpec(p, s, 4)
                mat = hankel_matrix(spec)
                divisions.clear()
                dets = leading_dets(mat, hankel_closed_forms(spec))
                assert dets[-1] == det_cofactor(mat)
                # W*[s,s] = 1 is untouched, so the first pivot is still
                # the unit (9 divisions); the pivots of orders 2 and 3
                # differ from their products (4 + 1 divisions)
                assert mat[0][0] == ONE
                # (after the four lists are checked against their products)
                assert [(path, product(b) if path == "factored" else b)
                        for path, b in divisions] == \
                    [("factored", ANY)] * 4 + [("factored", ONE)] * 9 \
                    + [("general", ANY)] * 5


class TestDegreeBound:
    def test_bound_covers_every_polynomial_built(self):
        # every entry, L and U factor entry, Bareiss dividend and minor of
        # each family, measured
        for m in (1, 2, 3):
            for r in (0, 1, 3):
                for s in range(4):
                    for n in range(1, 6):
                        spec = HankelSpec(WhitneyParams(m, r), s, n)
                        mat = hankel_matrix(spec)
                        lower, upper = lu_factors(spec)
                        degrees = [x.max_exp()
                                   for rows in (mat, lower, upper)
                                   for row in rows for x in row if x]

                        def divide(x, b):
                            degrees.append(x.max_exp())
                            return laurent_exact_div(x, b)

                        _, minors = bareiss(mat, divide)
                        degrees += [x.max_exp() for x in minors]
                        assert max(degrees) <= degree_bound(spec)


class TestClassical:
    def test_stirling_shifted(self):
        # det [[S(1,1),S(2,2)],[S(2,1),S(3,2)]] = 2
        rows = [[stirling2_enum(1, 1), stirling2_enum(2, 2)],
                [stirling2_enum(2, 1), stirling2_enum(3, 2)]]
        assert bareiss(rows, floordiv)[0] == 2
        assert classical_holds(1, 0, 1, 1)

    def test_stirling_triangle_det(self):
        rows = [[1, 1, 1], [0, 1, 3], [0, 1, 7]]
        assert bareiss(rows, floordiv)[0] == 4
        assert classical_holds(1, 0, 0, 2)

    def test_hand_value(self):
        assert classical_holds(2, 1, 0, 1)

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                family = HankelSpec(p, s, 4)
                mat = hankel_matrix(family)
                assert classical_hankel_check(family, mat) == [True] * 5
                for n in range(5):
                    spec = HankelSpec(p, s, n)
                    assert classical_hankel_check(spec, block(mat, n + 1)) \
                        == [True] * (n + 1)

    def test_a_wrong_last_entry_fails_the_last_order_alone(self):
        # entry (n, n) lies in the largest leading block only; its q=1
        # image is one more, which moves that block's determinant by the
        # minor of the order below, not 0
        family = HankelSpec(WhitneyParams(1, 1), 2, 3)
        mat = [list(row) for row in hankel_matrix(family)]
        mat[3][3] = mat[3][3] + ONE
        assert classical_hankel_check(family, mat) == \
            [True, True, True, False]
