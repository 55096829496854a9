"""Seeded request streams for the three workloads.

Each workload is a list of CLI argv lists.  The program under test sees only
these argv lists; the seed never reaches it.  Why each workload exists:

- ``verify-all``: the paper's purpose, a verdict on every identity.  Runs every
  route on small and medium polynomials (qcalculus/series dominate; the
  triangle engine barely works).  The grid is the product default, so the
  seed is unused.
- ``triangle``: full tables at top-row degree 1050-1475 with 90-170-bit
  coefficients.  Stresses the recurrence engine (multiplication by [a]_q at
  large degree) and JSON rendering; routes, evaluation and exact division idle.
- ``queries``: a notebook-like stream of single answers over shared (m, r)
  cells, so later requests hit the warm triangle cache.  Uses the ring for
  evaluation and exact division (Bareiss) rather than for large products.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-all", "triangle", "queries")

VERIFY_CELLS = 12420

# nmax per m for the triangle workload: top-row degree 1050-1475.  Every m=1
# table costs more than every m=2 table, which costs more than every m=3
# table, so the median and p90 of a repetition's six latencies are the mean
# of the m=2 pair and of the m=1 pair.
TRIANGLE_NMAX = {1: 50, 2: 35, 3: 27}

# Per (m, r) cell of the queries workload: how many requests of each type,
# besides two Hankel requests and the opening row sum.
QUERY_MIX = (("value", 3), ("star", 3), ("eval", 3), ("dowling", 1))
QUERY_M = (1, 2, 3)
QUERY_R = range(6)
QUERY_NMAX = 24


def _rational(rng: random.Random) -> str:
    """A nonzero rational p/q with |p|, q <= 9, as the CLI reads it."""
    q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return f"{q.numerator}/{q.denominator}"


# The 12 Hankel shapes (s, n), order n+1.  Cell r gets shapes r and 11-r,
# one small and one large, for every seed: which r a Hankel request has
# moves its cost more than anything else the seed could change.
HANKEL_SHAPES = [(s, n) for s in range(3) for n in range(2, 6)]


def _sizes(total: int) -> list:
    """n for `total` requests, spread evenly over 8..QUERY_NMAX.  Each m gets
    the same sizes, so the seed moves requests between cells and in time,
    but hardly changes the work."""
    return [8 + i * (QUERY_NMAX - 7) // total for i in range(total)]


def _query(rng: random.Random, kind: str, m: int, r: int, shape) -> list:
    mr = ["--m", str(m), "--r", str(r)]
    if kind == "hankel":
        s, n = shape
        return ["hankel", *mr, "--s", str(s), "--n", str(n)]
    n = shape
    if kind == "dowling":
        # "--q-eval=-3/5", not "--q-eval -3/5": argparse takes a leading
        # "-" for an option and rejects the second form.
        return ["dowling", *mr, "--n", str(n), f"--q-eval={_rational(rng)}"]
    nk = ["--n", str(n), "--k", str(rng.randint(0, n))]
    if kind == "eval":
        star = ["--star"] if rng.random() < 0.5 else []
        return ["eval", *mr, *nk, f"--q={_rational(rng)}", *star]
    return [kind, *mr, *nk]


def requests(workload: str, seed: int) -> list:
    """The argv lists of one repetition of `workload`, fixed by `seed`."""
    rng = random.Random(seed)
    if workload == "verify-all":
        return [["verify", "--suite", "all"]]
    if workload == "triangle":
        # Each m gets r and its mirror 5 - r, for r = 0, 1, 2 in a seeded
        # rotation: every seed asks for each pair once, so the work and the
        # peak memory hardly depend on the seed.  The smaller r goes first.
        first = rng.randrange(3)
        reqs = []
        for i, (m, nmax) in enumerate(TRIANGLE_NMAX.items()):
            r = (first + i) % 3
            reqs += [["table", "--m", str(m), "--r", str(rr), "--nmax",
                      str(nmax), "--format", "json"] for rr in (r, 5 - r)]
        return reqs
    if workload == "queries":
        reqs = []
        for m in QUERY_M:
            reqs += [_query(rng, "hankel", m, r, HANKEL_SHAPES[i])
                     for r in QUERY_R for i in (r, 11 - r)]
            for kind, count in QUERY_MIX:
                sizes = _sizes(count * len(QUERY_R))
                rng.shuffle(sizes)
                reqs += [_query(rng, kind, m, QUERY_R[i // count], n)
                         for i, n in enumerate(sizes)]
        rng.shuffle(reqs)
        # A cell is opened by its row sum at the largest n, which builds
        # all of the cell's rows, so the first touches are the same 18
        # requests for every seed and only their order moves.
        stream, opened = [], set()
        for argv in reqs:
            m, r = int(argv[2]), int(argv[4])
            if (m, r) not in opened:
                opened.add((m, r))
                stream.append(_query(rng, "dowling", m, r, QUERY_NMAX))
            stream.append(argv)
        return stream
    raise ValueError(f"unknown workload {workload!r}")


def ops(argv: list) -> int:
    """Ops one request stands for: cells, triangle entries, or one answer."""
    if argv[0] == "verify":
        return VERIFY_CELLS
    if argv[0] == "table":
        nmax = int(argv[argv.index("--nmax") + 1])
        return (nmax + 1) * (nmax + 2) // 2
    return 1
