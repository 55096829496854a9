"""What a CLI process imports, and the value classes that keep it small.

``WhitneyParams``, ``HankelSpec`` and ``verify.Failure`` are named tuples
and ``verify.SuiteResult`` is a ``types.SimpleNamespace``, not dataclasses:
``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``, in every process that imports the package.  These tests pin
that, and the behaviour the dataclasses had: the repr, field equality,
and for ``SuiteResult`` unhashability and a failure list and cell counts
of its own.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import qwhitney
from qwhitney import HankelSpec, WhitneyParams
from qwhitney.verify import Failure, SuiteResult

MODULES = ("cli", "hankel", "qcalculus", "qcore", "series", "symm", "verify",
           "whitney")


def test_cli_import_loads_every_module_and_not_dataclasses():
    # -S: no site module, so nothing is imported before qwhitney but what
    # the interpreter itself needs
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); "
            "import qwhitney; from qwhitney import cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwhitney.__file__)))
    added = subprocess.run([sys.executable, "-S", "-c", code, src],
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout.split()
    assert {f"qwhitney.{m}" for m in MODULES} <= set(added)
    assert "dataclasses" not in added and "inspect" not in added


P = WhitneyParams(1, 2)


def suite_result(suite: str, counts=(), failed=()) -> SuiteResult:
    """A SuiteResult built as a suite builds one: ``add`` for each
    (identity, cells) of ``counts``, then ``fail`` for each (params,
    identity, lhs, rhs) of ``failed``."""
    res = SuiteResult(suite)
    for identity, cells in counts:
        res.add(identity, cells)
    for cell in failed:
        res.fail(*cell)
    return res


@pytest.mark.parametrize("make, message", [
    (lambda: WhitneyParams(0, 0), "m must be >= 1"),
    (lambda: WhitneyParams(m=1, r=-1), "r must be >= 0"),
    (lambda: HankelSpec(P, -1, 0), "s and n must be >= 0"),
    (lambda: HankelSpec(P, s=0, n=-1), "s and n must be >= 0"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("value, text", [
    (WhitneyParams(m=1, r=2), "WhitneyParams(m=1, r=2)"),
    (HankelSpec(P, 3, 4),
     "HankelSpec(params=WhitneyParams(m=1, r=2), s=3, n=4)"),
    (Failure({"m": 1}, "vertical", "1", "2"),
     "Failure(params={'m': 1}, identity='vertical', lhs='1', rhs='2')"),
    (suite_result("hankel", [("lu_factorization", 3)]),
     "SuiteResult(suite='hankel', counts={'lu_factorization': 3}, "
     "failures=[])"),
])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("make", [
    lambda: WhitneyParams(2, 1),
    lambda: HankelSpec(WhitneyParams(2, 1), 1, 3),
])
def test_frozen_values_equal_hash_and_copy_by_fields(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
    assert WhitneyParams(2, 1) != WhitneyParams(1, 2)
    assert HankelSpec(P, 1, 3) != HankelSpec(P, 3, 1)


@pytest.mark.parametrize("value, field", [
    (WhitneyParams(1, 2), "m"),
    (HankelSpec(P, 3, 4), "s"),
])
def test_frozen_values_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) != 5


def test_failure_and_suite_result_compare_by_fields():
    assert (Failure({"n": 1}, "egf", "a", "b")
            == Failure(params={"n": 1}, identity="egf", lhs="a", rhs="b"))
    assert Failure({"n": 1}, "egf", "a", "b") != Failure({"n": 2}, "egf", "a", "b")
    assert Failure({"n": 1}, "egf", "a", "b")._asdict() == {
        "params": {"n": 1}, "identity": "egf", "lhs": "a", "rhs": "b"}
    res = SuiteResult("genfun")
    res.add("egf", 1)
    res.fail({"n": 1}, "egf", 1, 2)
    failed = [({"n": 1}, "egf", 1, 2)]
    assert res == suite_result("genfun", [("egf", 1)], failed)
    assert res.failures == [Failure({"n": 1}, "egf", "1", "2")]
    assert res != suite_result("genfun", [("egf", 1)])
    assert res != suite_result("genfun", [("rational_gf", 1)], failed)
    with pytest.raises(TypeError):
        hash(res)


def test_cells_sum_the_counts_of_each_identity():
    res = SuiteResult("recurrences")
    assert res.cells == 0 and res.counts == {}
    res.add("vertical", 3)
    res.add("horizontal", 4)
    res.add("vertical", 2)
    assert res.counts == {"vertical": 5, "horizontal": 4}
    assert res.cells == 9 and res.ok


def test_each_suite_result_has_its_own_failures():
    a, b = SuiteResult("recurrences"), SuiteResult("recurrences")
    a.add("vertical", 1)
    a.fail({}, "vertical")
    assert a.failures and not b.failures and not b.counts
    assert SuiteResult("x").failures is not SuiteResult("x").failures
    assert SuiteResult("x").counts is not SuiteResult("x").counts
    assert not a.ok and b.ok and b.cells == 0
