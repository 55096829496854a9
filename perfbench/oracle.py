"""Output oracles, independent of qwhitney's own code.

The triangle is recomputed over plain ints as dense coefficient lists, and
rational values through ``Fraction`` evaluation of those lists.  Each
``check`` returns how many of the request's ops failed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from math import comb

from workloads import VERIFY_CELLS, ops


def _times_qint(p: list, a: int) -> list:
    """p * [a]_q for a >= 0, as a sliding-window sum over prefix sums."""
    if a == 0 or not p:
        return []
    s = list(accumulate(p + [0] * (a - 1)))
    return [x - y for x, y in zip(s, [0] * a + s)]


class Triangle:
    """W_{m,r}[n,k] as dense coefficient lists (index = exponent)."""

    def __init__(self, m: int, r: int):
        self.m, self.r = m, r
        self.rows = [[[1]]]

    def w(self, n: int, k: int) -> list:
        m, r = self.m, self.r
        while len(self.rows) <= n:
            prev, n1 = self.rows[-1], len(self.rows)
            row = []
            for j in range(n1 + 1):
                c = _times_qint(prev[j], m * j + r) if j < n1 else []
                if j >= 1:
                    sh = m * (j - 1) + r
                    c = c + [0] * max(0, sh + len(prev[j - 1]) - len(c))
                    for i, v in enumerate(prev[j - 1]):
                        c[sh + i] += v
                row.append(c)
            self.rows.append(row)
        return self.rows[n][k]

    def star_shift(self, k: int) -> int:
        return -(self.m * comb(k, 2) + k * self.r)


def _options(argv: list) -> dict:
    """{"m": "1", "q": "-3/5", "star": True, ...} from a generated argv."""
    opt, i = {}, 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            opt[key], i = value, i + 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opt[key], i = argv[i + 1], i + 2
        else:
            opt[key], i = True, i + 1
    return opt


def _pairs(coeffs: list, offset: int = 0) -> list:
    return [[e + offset, str(c)] for e, c in enumerate(coeffs) if c]


def _evaluate(coeffs: list, x: Fraction, offset: int = 0) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc * x ** offset


class Oracle:
    """Expected answers for any request of the three workloads."""

    def __init__(self):
        self._triangles = {}

    def triangle(self, m: int, r: int) -> Triangle:
        if (m, r) not in self._triangles:
            self._triangles[m, r] = Triangle(m, r)
        return self._triangles[m, r]

    def check(self, argv: list, rc, text: str) -> int:
        """Failed ops of one answered request (all of them if it failed)."""
        if rc is None:  # the request raised
            return ops(argv)
        try:
            return getattr(self, "_" + argv[0])(_options(argv), rc, text)
        except (ValueError, KeyError, IndexError, TypeError):
            return ops(argv)  # output could not be parsed

    def _verify(self, opt, rc, text):
        report = json.loads(text.splitlines()[-1])
        failures = len(report["failures"])
        if report["cells"] != VERIFY_CELLS or (rc != 0 and not failures):
            return VERIFY_CELLS
        return failures

    def _table(self, opt, rc, text):
        m, r, nmax = int(opt["m"]), int(opt["r"]), int(opt["nmax"])
        tri = self.triangle(m, r)
        doc = json.loads(text)
        total = (nmax + 1) * (nmax + 2) // 2
        rows = doc["rows"]
        if (rc != 0 or doc["params"] != {"m": m, "r": r}
                or [len(row) for row in rows] != list(range(1, nmax + 2))):
            return total
        return sum(1 for n, row in enumerate(rows) for k in range(n + 1)
                   if row[k] != _pairs(tri.w(n, k)))

    def _single(self, opt, star: bool):
        tri = self.triangle(int(opt["m"]), int(opt["r"]))
        n, k = int(opt["n"]), int(opt["k"])
        return tri.w(n, k) if k <= n else [], tri.star_shift(k) if star else 0

    def _value(self, opt, rc, text, star=False):
        coeffs, offset = self._single(opt, star)
        return int(rc != 0 or text != json.dumps(_pairs(coeffs, offset)) + "\n")

    def _star(self, opt, rc, text):
        return self._value(opt, rc, text, star=True)

    def _eval(self, opt, rc, text):
        coeffs, offset = self._single(opt, "star" in opt)
        want = _evaluate(coeffs, Fraction(opt["q"]), offset)
        return int(rc != 0 or text != f"{want}\n")

    def _dowling(self, opt, rc, text):
        tri = self.triangle(int(opt["m"]), int(opt["r"]))
        n, x = int(opt["n"]), Fraction(opt["q-eval"])
        want = sum(_evaluate(tri.w(n, k), x) for k in range(n + 1))
        return int(rc != 0 or text != json.dumps(str(want)) + "\n")

    def _hankel(self, opt, rc, text):
        m, r, s, n = (int(opt[key]) for key in ("m", "r", "s", "n"))
        tri = self.triangle(m, r)
        doc = json.loads(text)
        at_one = 1
        for k in range(n + 1):
            at_one *= (m * (s + k) + r) ** k
        matrix = [[_pairs(tri.w(s + i + j, s + j), tri.star_shift(s + j))
                   for j in range(n + 1)] for i in range(n + 1)]
        ok = (rc == 0 and doc["status"] == "PASS"
              and doc["matrix"] == matrix
              and doc["determinant"] == doc["closed_form"]
              and sum(int(c) for _, c in doc["closed_form"]) == at_one)
        return int(not ok)
