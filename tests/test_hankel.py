import io
import random
from operator import floordiv
from unittest.mock import ANY

import pytest

from conftest import random_laurent, stirling2_enum
from qwhitney import (ExactMatrix, HankelSpec, LaurentPoly, WhitneyParams,
                      classical_hankel_check, det_cofactor, det_exact,
                      hankel_closed_form, hankel_factors, hankel_matrix,
                      hankel_transform_check, lu_check, q_int, w_star)
from qwhitney import cli, hankel, qcalculus, qcore, verify, whitney
from qwhitney.hankel import (bareiss, leading_block, leading_dets,
                             lu_factors, lu_product, matmul)
from qwhitney.qcore import ONE, ZERO, laurent_exact_div

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def transform_holds(spec):
    """hankel_transform_check on the determinant of spec's own matrix."""
    return hankel_transform_check(spec, det_exact(hankel_matrix(spec)))


def lu_holds(spec):
    """lu_check on spec's own matrix, determinant and L*U product."""
    mat = hankel_matrix(spec)
    return lu_check(spec, mat, det_exact(mat), lu_product(spec))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HankelSpec(P11, -1, 0)
        with pytest.raises(ValueError):
            ExactMatrix(((ONE, ONE),))


class TestMatrix:
    def test_order_zero(self):
        mat = hankel_matrix(HankelSpec(P11, 2, 0))
        assert mat.entries == ((ONE,),)

    def test_entries_by_definition(self):
        spec = HankelSpec(WhitneyParams(2, 1), 1, 2)
        mat = hankel_matrix(spec)
        for i in range(3):
            for j in range(3):
                assert mat[i, j] == w_star(spec.params, 1 + i + j, 1 + j)

    def test_two_by_two_structure(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert mat[0, 0] == ONE and mat[0, 1] == ONE
            assert mat[1, 0] == q_int(p.r)
            assert mat[1, 1] == q_int(p.r) + q_int(p.m + p.r)


class TestDeterminant:
    def test_order_one(self):
        assert det_exact(ExactMatrix(((q_int(3),),))) == q_int(3)

    def test_two_by_two_hand_value(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert det_exact(mat) == q_int(p.m + p.r)

    def test_bareiss_matches_cofactor_random(self):
        rng = random.Random(11)
        for order in (2, 3, 4):
            for _ in range(8):
                mat = ExactMatrix(tuple(
                    tuple(random_laurent(rng, 3, (0, 2), (-4, 4))
                          for _ in range(order))
                    for _ in range(order)))
                assert det_exact(mat) == det_cofactor(mat)

    def test_zero_pivot_falls_back(self):
        mat = ExactMatrix(((ZERO, ONE), (ONE, ZERO)))
        assert det_exact(mat) == -ONE

    def test_zero_pivots_need_no_cofactor(self, monkeypatch):
        rng = random.Random(5)

        def entry():
            return random_laurent(rng, 3, (-1, 2), (-4, 4)) + ONE

        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[0][0] = ZERO
        lead_zero = ExactMatrix(tuple(map(tuple, rows)))
        # rows 0 and 1 agree up to q in columns 0 and 1, so the second
        # pivot vanishes after the first elimination step
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[1][:2] = [x.shift(1) for x in rows[0][:2]]
        mid_zero = ExactMatrix(tuple(map(tuple, rows)))
        singular = ExactMatrix(((ONE, ZERO, q_int(2)),
                                (q_int(3), ZERO, ONE),
                                (LaurentPoly({-1: 2}), ZERO, q_int(-2))))
        mats = (lead_zero, mid_zero, singular)
        expected = [det_cofactor(mat) for mat in mats]
        assert expected[2] == ZERO
        assert not any(x.is_zero() for x in expected[:2])

        def refuse(mat):
            raise AssertionError("det_exact fell back to det_cofactor")

        monkeypatch.setattr(hankel, "det_cofactor", refuse)
        assert [det_exact(mat) for mat in mats] == expected

    def test_int_zero_pivots(self):
        rows = [[0, 2, 1], [0, 0, 3], [4, 1, 1]]  # both pivots need a swap
        assert bareiss(rows, floordiv)[0] == 24
        assert bareiss([[1, 0, 2], [3, 0, 1], [5, 0, 7]], floordiv)[0] == 0

    def test_bareiss_matches_cofactor_on_grid(self):
        for p in PARAM_GRID[:4]:
            for s in range(3):
                for n in range(4):
                    mat = hankel_matrix(HankelSpec(p, s, n))
                    assert det_exact(mat) == det_cofactor(mat)


class TestLeadingDets:
    FAMILIES = [(WhitneyParams(m, r), s) for m, r, s in
                ((1, 1, 0), (1, 0, 2), (2, 1, 1), (3, 2, 0), (2, 0, 3))]

    def test_pivots_are_leading_minors(self):
        for p, s in self.FAMILIES:
            mat = hankel_matrix(HankelSpec(p, s, 5))
            det, minors = bareiss(mat.entries, laurent_exact_div)
            dets = leading_dets(mat)
            assert len(minors) == len(dets) == 6 and dets[5] == det
            for order in range(1, 7):
                block = leading_block(mat, order)
                assert block == hankel_matrix(HankelSpec(p, s, order - 1))
                assert dets[order - 1] == minors[order - 1] == det_exact(block)
                if order <= 4:
                    assert dets[order - 1] == det_cofactor(block)

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
        lead_zero = ExactMatrix(tuple(map(tuple, rows)))
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[1][:2] = [x.shift(1) for x in rows[0][:2]]
        mid_zero = ExactMatrix(tuple(map(tuple, rows)))
        fallbacks = []
        det_exact_ = hankel.det_exact

        def counted(mat):
            fallbacks.append(mat.order)
            return det_exact_(mat)

        monkeypatch.setattr(hankel, "det_exact", counted)
        for mat, pivots in ((lead_zero, 1), (mid_zero, 2)):
            fallbacks.clear()
            _, minors = bareiss(mat.entries, laurent_exact_div)
            assert len(minors) == pivots and minors[-1] == ZERO
            dets = leading_dets(mat)
            assert fallbacks == list(range(pivots + 1, 5))
            assert dets == [det_cofactor(leading_block(mat, k))
                            for k in range(1, 5)]

    def test_singular_column_stops_the_pivots(self):
        mat = ExactMatrix(((ZERO, ONE, q_int(2)),
                           (ZERO, q_int(3), ONE),
                           (ZERO, ONE, ONE)))
        det, minors = bareiss(mat.entries, laurent_exact_div)
        assert det == ZERO and minors == [ZERO]
        assert leading_dets(mat) == [ZERO, ZERO, ZERO]


class TestHankelTransform:
    def test_order_zero(self):
        for p in PARAM_GRID:
            assert hankel_closed_form(HankelSpec(p, 2, 0)) == ONE
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
        assert lower.entries == ((ONE, ZERO), (q_int(1), ONE))
        assert upper.entries == ((ONE, ONE), (ZERO, q_int(2)))
        assert matmul(lower, upper).entries == \
            hankel_matrix(HankelSpec(P11, 0, 1)).entries

    def test_upper_diagonal_closed_form(self):
        for p in PARAM_GRID:
            for s in range(3):
                spec = HankelSpec(p, s, 3)
                _, upper = lu_factors(spec)
                for k in range(4):
                    assert upper[k, k] == q_int(p.m * (s + k) + p.r) ** k

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert lu_holds(HankelSpec(p, s, n))


class TestLUProduct:
    def test_leading_blocks_of_one_product(self):
        for p in PARAM_GRID[::2]:
            for s in range(3):
                mat = hankel_matrix(HankelSpec(p, s, 4))
                lu = lu_product(HankelSpec(p, s, 4))
                dets = leading_dets(mat)
                for n in range(5):
                    spec = HankelSpec(p, s, n)
                    product, diagonal = lu_product(spec)
                    assert leading_block(lu[0], n + 1) == product
                    assert lu[1][:n + 1] == diagonal
                    assert lu_check(spec, mat, dets[n], lu)
                    assert not lu_check(spec, mat, dets[n] + ONE, lu)

    def test_suite_lu_cells_fail_under_a_factor_fault(self, monkeypatch):
        original = hankel.lu_factors

        def shifted(spec):
            # U read with the shift r + m(s+i+1) instead of r + m(s+i)
            lower, _ = original(spec)
            params, s, n = spec.params, spec.s, spec.n
            upper = ExactMatrix(tuple(
                tuple(w_star(WhitneyParams(params.m,
                                           params.r + params.m * (s + i + 1)),
                             j, j - i) if i <= j else ZERO
                      for j in range(n + 1))
                for i in range(n + 1)))
            return lower, upper

        grid = {"m": [1, 2], "r": [0, 1], "smax_hankel": 1, "nmax_hankel": 3}
        assert verify.suite_hankel(grid).ok
        monkeypatch.setattr(hankel, "lu_factors", shifted)
        res = verify.suite_hankel(grid)
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


class TestFactoredPivots:
    FAMILIES = [(WhitneyParams(m, r), s) for m, r, s in
                ((1, 0, 0), (1, 1, 2), (2, 1, 1), (3, 2, 0))]
    GRID = {"m": [1, 2], "r": [0, 1], "smax_hankel": 1, "nmax_hankel": 4}

    def test_factors_are_the_closed_form(self):
        for p in PARAM_GRID:
            for s in range(3):
                for n in range(5):
                    spec = HankelSpec(p, s, n)
                    expected = ONE
                    for k in range(n + 1):
                        expected = expected * q_int(p.m * (s + k) + p.r) ** k
                    assert hankel_closed_form(spec) == expected
                    assert product(hankel_factors(spec)) == expected
                    assert len(hankel_factors(spec)) == n * (n + 1) // 2

    def test_every_pivot_divided_by_its_factors(self, divisions):
        for p, s in self.FAMILIES:
            mat = hankel_matrix(HankelSpec(p, s, 4))
            divisions.clear()
            assert det_exact(mat) == det_cofactor(mat)
            # steps 1, 2, 3 divide 9, 4 and 1 entries by the minors of
            # orders 1, 2 and 3
            minor = [hankel_closed_form(HankelSpec(p, s, n)) for n in range(3)]
            assert [(path, product(factors)) for path, factors in divisions] \
                == [("factored", minor[order - 1])
                    for order, count in ((1, 9), (2, 4), (3, 1))
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

    def test_explicit_suite_needs_no_general_division(self, divisions):
        assert verify.suite_explicit().ok
        assert divisions == []

    def test_closed_form_fault(self, monkeypatch):
        # the determinant does not read the closed form; the check does
        right = hankel.hankel_closed_form
        monkeypatch.setattr(hankel, "hankel_closed_form",
                            lambda spec: right(spec) * q_int(2))
        for p, s in self.FAMILIES:
            mat = hankel_matrix(HankelSpec(p, s, 3))
            assert det_exact(mat) == det_cofactor(mat)
        res = verify.suite_hankel(self.GRID)
        assert {f.identity for f in res.failures} == {"hankel_transform"}
        assert len(res.failures) == res.cells // 3

    def test_factor_fault_turns_the_fast_path_off(self, monkeypatch,
                                                  divisions):
        # a wrong factor list reaches both the closed form and the pivot
        # divider: the divider finds no pivot equal to its products and
        # divides in general, so only the check fails
        right = hankel.hankel_factors
        monkeypatch.setattr(hankel, "hankel_factors",
                            lambda spec: right(spec) + (spec.n + 2,))
        for p, s in self.FAMILIES:
            mat = hankel_matrix(HankelSpec(p, s, 3))
            divisions.clear()
            assert det_exact(mat) == det_cofactor(mat)
            assert [path for path, _ in divisions] == ["general"] * 5
        res = verify.suite_hankel(self.GRID)
        assert {f.identity for f in res.failures} == {"hankel_transform"}
        assert len(res.failures) == res.cells // 3

    def test_perturbed_recurrence_takes_the_general_path(self, divisions):
        with whitney.perturb_recurrence():
            for p, s in self.FAMILIES:
                mat = hankel_matrix(HankelSpec(p, s, 4))
                divisions.clear()
                assert det_exact(mat) == det_cofactor(mat)
                # W*[s,s] = 1 is untouched, so the first pivot is still
                # the unit (9 divisions); the pivots of orders 2 and 3
                # differ from their products (4 + 1 divisions)
                assert mat[0, 0] == ONE
                assert [(path, product(b) if path == "factored" else b)
                        for path, b in divisions] == \
                    [("factored", ONE)] * 9 + [("general", ANY)] * 5


class TestClassical:
    def test_stirling_shifted(self):
        # det [[S(1,1),S(2,2)],[S(2,1),S(3,2)]] = 2
        rows = [[stirling2_enum(1, 1), stirling2_enum(2, 2)],
                [stirling2_enum(2, 1), stirling2_enum(3, 2)]]
        assert bareiss(rows, floordiv)[0] == 2
        assert classical_hankel_check(1, 0, 1, 1)

    def test_stirling_triangle_det(self):
        rows = [[1, 1, 1], [0, 1, 3], [0, 1, 7]]
        assert bareiss(rows, floordiv)[0] == 4
        assert classical_hankel_check(1, 0, 0, 2)

    def test_hand_value(self):
        assert classical_hankel_check(2, 1, 0, 1)

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert classical_hankel_check(p.m, p.r, s, n)
