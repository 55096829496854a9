"""Symmetric-function route and tableau oracle for the normalized numbers.

W*_{m,r}[n,k]_q is the complete homogeneous symmetric polynomial of degree
n-k in the k+1 values [r]_q, [m+r]_q, ..., [mk+r]_q: the z^(n-k)
coefficient of prod_{j<=k} 1/(1 - [mj+r]_q z), which ``h_prefixes`` (also
behind ``series.rational_gf_columns``) builds one factor at a time: row k
of one pass over [r]_q, ..., [mN+r]_q holds W*[k..N,k], its N-k+1
entries, so the rows of a pass form a triangle.  A brute-force
sum over weakly increasing column-length lists (A-tableaux) provides the
independent exponential-time oracle: ``tableau_walk`` enumerates every
tableau of one column k once, depth first, and adds its product into one
working list per length (``qcore.poly_sums``), with no sum polynomial
built per tableau.  The two convolution identities read the W* tables of
``convolution_tables``, built once per (m, r).  ``convolution_check``
compares every cell of both as integers at one point q = 2^B, each entry
packed once, with B set from q = 1 values (``convolution_bound``) so
that each integer equality is an exact polynomial equality
(``qcore.pack_at_point``, shared with ``series.egf_check``), and returns
the cell count of each identity and its failed cells only.  It reads a
cell's terms from one place per identity, ``_first_sides`` and
``_second_sides``.
"""

from __future__ import annotations

from math import comb
from operator import mul

from .qcore import ONE, ZERO, pack_at_point, poly_sums, q_int
from .whitney import WhitneyParams, row_degree, w_table


class EnumerationTooLarge(ValueError):
    """Tableau enumeration would exceed the configured cap."""


DEFAULT_ENUMERATION_CAP = 10 ** 6


def h_prefixes(values, d: int):
    """Yield (h_0, ..., h_{d-j}) in values[0..j] for j = 0, 1, ...: the
    z^0..z^(d-j) coefficients of prod_{i<=j} 1/(1 - values[i] z), each
    factor one in-place pass h_i += x h_{i-1}, i = 1..d-j.  Row j stops at
    entry d-j, the triangle its readers read, and is empty once j > d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    row = [ONE] + [ZERO] * d
    for x in values:
        for i in range(1, len(row)):
            row[i] = row[i] + x * row[i - 1]
        yield tuple(row)
        del row[-1:]


def whitney_values(params: WhitneyParams, k: int) -> list:
    """[r]_q, [m+r]_q, ..., [mk+r]_q."""
    return [q_int(params.m * i + params.r) for i in range(k + 1)]


def tableau_walk(params: WhitneyParams, k: int, length: int) -> list:
    """Brute-force W*_{m,r}[k+l,k]_q for l = 0..length: the sum of column-
    weight products over the A-tableaux with l columns of lengths in {0..k}.

    One depth-first walk adds each tableau's product once into the one
    working list of its length (``qcore.poly_sums``), so no sum is built
    as a polynomial until the end; a tableau's product is its prefix's
    times one weight, and the walk holds about length * (k+1) products.
    It is refused before its first tableau when their number,
    C(k+length+1, length), is over DEFAULT_ENUMERATION_CAP.
    """
    if k < 0 or length < 0:
        raise ValueError("k and length must be >= 0")
    count, cap = comb(k + length + 1, length), DEFAULT_ENUMERATION_CAP
    if count > cap:
        raise EnumerationTooLarge(f"{count} tableaux exceeds cap {cap}")
    weights = whitney_values(params, k)

    def tableaux():
        """(number of columns, product) of every tableau, depth first."""
        # (product, number of columns, least length the next column may take)
        stack = [(ONE, 0, 0)]
        while stack:
            prod, columns, least = stack.pop()
            yield columns, prod
            if columns < length:
                stack.extend((prod * weights[c], columns + 1, c)
                             for c in range(least, k + 1))

    return poly_sums(tableaux(), length + 1)


def convolution_tables(params: WhitneyParams, nmax: int, spmax: int) -> tuple:
    """``(table, shifted)``, with table[n][k] = W*_{m,r}[n,k]_q and
    shifted[i][n][k] = W*_{m,r+mi}[n,k]_q for each n the cells n <= nmax,
    s, p <= spmax read, of degree at most row max(nmax+1, 2 spmax) of
    (m, r).  Each is the cached triangle rows, one shift per entry; each
    shifted parameter is built by WhitneyParams."""
    def star_rows(p: WhitneyParams, top: int) -> list:
        return [[x.shift(-row_degree(p.m, p.r, k))
                 for k, x in enumerate(row)] for row in w_table(p, top)]

    return (star_rows(params, max(nmax + 1, 2 * spmax)),
            [star_rows(WhitneyParams(params.m, params.r + params.m * i),
                       max(nmax + 1 - i, spmax if i <= spmax else 0))
             for i in range(max(nmax + 2, spmax + 1))])


def _first_sides(table, shifted, n: int, l: int, j: int) -> tuple:
    """``(lhs, xs, ys)`` of the first identity: its left side W*[n+1,
    l+j+1] and the factors xs[i] = W*[k,l], ys[i] = W*_{m,r+m(l+1)}[n-k,j]
    whose products sum to it, read from ``convolution_tables`` or from
    tables of their values.  Only k = l..n-j: W*[k,l] = 0 for k < l, the
    shifted W*[n-k,j] for n-k < j."""
    ks = range(l, n - j + 1)
    return (table[n + 1][l + j + 1], [table[k][l] for k in ks],
            [shifted[l + 1][n - k][j] for k in ks])


def _second_sides(table, shifted, s: int, p: int, t: int) -> tuple:
    """``(lhs, xs, ys)`` of the second identity, as ``_first_sides`` reads
    them: W*[s+p,t] and xs[i] = W*[s,k], ys[i] = W*_{m,r+mk}[p,t-k], k =
    max(0,t-p)..min(t,s)."""
    ks = range(max(0, t - p), min(t, s) + 1)
    return (table[s + p][t], [table[s][k] for k in ks],
            [shifted[k][p][t - k] for k in ks])


def _identities(nmax: int, spmax: int) -> tuple:
    """(identity, names of its parameters, its sides, its cells'
    parameters) of each convolution identity, cells in order."""
    return (
        ("convolution_first", ("n", "l", "j"), _first_sides,
         [(n, l, j) for n in range(nmax + 1) for l in range(n + 1)
          for j in range(n - l + 1)]),
        ("convolution_second", ("s", "p", "t"), _second_sides,
         [(s, p, t) for s in range(spmax + 1) for p in range(spmax + 1)
          for t in range(s + p + 1)]))


def convolution_bound(table, shifted, nmax: int, spmax: int) -> int:
    """A bound on every coefficient of both sides of every cell of the two
    identities, and of their difference: the largest, over the cells, of
    L1 of the left side plus the sum over the pairs of the products of
    their L1 norms, read from the W* tables as ``convolution_check``
    reads them."""
    def at_one(rows):
        return [[sum(map(abs, x.coeffs)) for x in row] for row in rows]

    ones = at_one(table), [at_one(rows) for rows in shifted]
    bound = 0
    for _, _, sides, cells in _identities(nmax, spmax):
        for args in cells:
            lhs, xs, ys = sides(*ones, *args)
            bound = max(bound, lhs + sum(map(mul, xs, ys)))
    return bound


def convolution_check(table, shifted, nmax: int, spmax: int) -> tuple:
    """``(counts, failed)`` over every cell of the two identities, in
    order: the first, W*[n+1, l+j+1]_q = sum_k W*_{m,r}[k,l]_q
    W*_{m,r+m(l+1)}[n-k,j]_q, at each n <= nmax, l <= n, j <= n-l, then
    the second, W*[s+p,t]_q = sum_k W*[s,k]_q W*_{m,r+mk}[p,t-k]_q, at
    each s, p <= spmax, t <= s+p.
    ``counts`` maps each identity to its number of cells, and ``failed``
    lists ``(identity, cell)`` for each failed cell, ``cell`` the dict
    naming its parameters; a passing cell makes no dict.  Reads the
    ``convolution_tables`` of (m, r) for nmax and spmax.

    Each cell compares the two sides as integers at one point q = X =
    2^B, each entry packed once (``qcore.pack_at_point``), B set by
    ``convolution_bound``; so each cell is a few integer products and one
    exact comparison.  An entry with a negative exponent, which no W*
    has, fails every cell that reads it.
    """
    bound = convolution_bound(table, shifted, nmax, spmax)

    def at_point(rows):
        return [pack_at_point(bound, row)[1] for row in rows]

    points = at_point(table), [at_point(rows) for rows in shifted]
    counts, failed = {}, []
    for identity, names, sides, cells in _identities(nmax, spmax):
        counts[identity] = len(cells)
        for args in cells:
            lhs, xs, ys = sides(*points, *args)
            if (lhs is None or None in xs or None in ys
                    or lhs != sum(map(mul, xs, ys))):
                failed.append((identity, dict(zip(names, args))))
    return counts, failed
