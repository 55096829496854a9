"""Span tracer for the per-layer run.

Wraps the public functions of each qwhitney module at every place they are
bound: the defining module, every module that imported the name with
``from .x import y``, module-level dicts such as verify's suite table, and
the ring classes' methods.  Each call records a span (group, parent, start,
end); spans stay in memory and are written once, at the end.

A group is ``<module>.<name>``; several functions can share one.  Self time is
a span's duration minus its children's.  The tracer's own bookkeeping inside
a span is timed too and charged to no layer, so it shows in
``trace.unclaimed_ratio`` rather than in a parent's self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from math import comb

MODULES = ("qcore", "whitney", "qcalculus", "series", "symm", "hankel",
           "verify", "cli")
SUITES = ("recurrences", "explicit", "genfun", "symmetric", "convolution",
          "hankel")

# module -> {function or Class.method: group}
TARGETS = {
    "qcore": {
        "LaurentPoly.__mul__": "qcore.mul", "LaurentPoly.__rmul__": "qcore.mul",
        "LaurentPoly.__add__": "qcore.add", "LaurentPoly.__radd__": "qcore.add",
        "LaurentPoly.eval": "qcore.eval",
        "laurent_exact_div": "qcore.exact_div",
        "q_binomial": "qcore.q_binomial",
        **{name: "qcore.other" for name in (
            "LaurentPoly.__sub__", "LaurentPoly.__rsub__",
            "LaurentPoly.__neg__", "LaurentPoly.__pow__",
            "LaurentPoly.__eq__", "LaurentPoly.shift", "LaurentPoly.stretch",
            "PolyFraction.__eq__", "PolyFraction.__add__",
            "PolyFraction.__mul__", "PolyFraction.eval",
            "q_int", "q_factorial", "q_factorial_base", "eval_q")},
    },
    "whitney": {
        **{name: "whitney.recurrence"
           for name in ("w", "w_star", "w_table", "r_dowling")},
        "w_vertical": "whitney.routes", "w_horizontal": "whitney.routes",
    },
    "qcalculus": {
        "whitney_explicit": "qcalculus.explicit",
        "newton_coefficients": "qcalculus.newton",
        "q_diff_explicit": "qcalculus.newton",
    },
    "series": {
        "rational_gf": "series.rational_gf", "egf": "series.egf",
        "horizontal_gf_check": "series.horizontal_gf",
    },
    "symm": {
        "h_complete": "symm.h_complete", "w_star_symmetric": "symm.h_complete",
        "tableau_sum": "symm.tableau",
        "convolution_first": "symm.convolution",
        "convolution_second": "symm.convolution",
    },
    "hankel": {
        "det_exact": "hankel.det_exact",
        "det_cofactor": "hankel.cofactor_fallback",
        "hankel_closed_form": "hankel.closed_form",
        "lu_check": "hankel.lu",
        "classical_hankel_check": "hankel.classical",
        "hankel_matrix": "hankel.matrix",
        "hankel_transform_check": "hankel.matrix",
    },
    "verify": {
        **{f"suite_{s}": f"verify.{s}" for s in SUITES},
        "run_suite": "verify.run_suite",
    },
    "cli": {"main": "cli.main"},
}

# Per-layer metrics: name -> unit.  Counts repeat exactly for one input.
PER_LAYER = {
    **{f"qcore.{op}.{m}": u
       for op in ("mul", "add", "exact_div", "eval", "q_binomial")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "qcore.mul.term_products": "count",
    "qcore.max_degree": "count",
    "qcore.max_coeff_bits": "bits",
    "whitney.recurrence.calls": "count",
    "whitney.recurrence.self_s": "s",
    "whitney.cache_hit_ratio": "ratio",
    "whitney.routes.self_s": "s",
    "qcalculus.explicit.self_s": "s",
    "qcalculus.newton.self_s": "s",
    "series.rational_gf.self_s": "s",
    "series.egf.self_s": "s",
    "series.horizontal_gf.self_s": "s",
    "symm.h_complete.self_s": "s",
    "symm.tableau.self_s": "s",
    "symm.tableau.count": "count",
    "symm.convolution.self_s": "s",
    "hankel.det_exact.calls": "count",
    "hankel.det_exact.self_s": "s",
    "hankel.cofactor_fallback.calls": "count",
    "hankel.closed_form.self_s": "s",
    "hankel.lu.self_s": "s",
    "hankel.classical.self_s": "s",
    **{f"verify.{s}.{m}": u for s in SUITES
       for m, u in (("wall_s", "s"), ("cells", "count"))},
    **{f"{mod}.self_s": "s" for mod in MODULES},
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unclaimed_ratio": "ratio",
}


def _term_count(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


class Tracer:
    """Span store plus the counters that are measured at the same calls."""

    def __init__(self):
        self.groups = []
        self.gid = {}
        self.group = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.book = array("d")  # bookkeeping seconds inside each span
        self.stack = [-1]
        self.counts = {"qcore.mul.term_products": 0, "qcore.max_degree": 0,
                       "qcore.max_coeff_bits": 0, "symm.tableau.count": 0,
                       **{f"verify.{s}.cells": 0 for s in SUITES}}
        self.missing = []

    def _group_id(self, group: str) -> int:
        if group not in self.gid:
            self.gid[group] = len(self.groups)
            self.groups.append(group)
        return self.gid[group]

    def _note_size(self, p):
        terms = getattr(p, "terms", None)
        if terms:
            c = self.counts
            c["qcore.max_degree"] = max(c["qcore.max_degree"], max(terms))
            bits = max(abs(v) for v in terms.values()).bit_length()
            c["qcore.max_coeff_bits"] = max(c["qcore.max_coeff_bits"], bits)

    def _after(self, group: str):
        """Counter update run after a call of `group`, or None."""
        c = self.counts
        if group == "qcore.mul":
            def after(args, result):
                c["qcore.mul.term_products"] += (_term_count(args[0])
                                                 * _term_count(args[1]))
                self._note_size(result)
            return after
        if group == "qcore.add":
            return lambda args, result: self._note_size(result)
        if group == "symm.tableau":
            def after(args, result):
                n, k = args[1], args[2]
                c["symm.tableau.count"] += comb(n, n - k)
            return after
        if group.startswith("verify.") and group[7:] in SUITES:
            key = f"{group}.cells"

            def after(args, result):
                c[key] += result.cells
            return after
        return None

    def _wrap(self, fn, group: str):
        gid, after = self._group_id(group), self._after(group)
        groups, parents, starts, ends, books = (
            self.group, self.parent, self.start, self.end, self.book)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            i = len(groups)
            groups.append(gid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            books.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args, result)
            books[i] = (t0 - enter) + (clock() - t1)
            return result

        return traced

    def install(self, package):
        """Wrap every target of `package` (the imported qwhitney) in place."""
        mods = [package] + [sys.modules[f"{package.__name__}.{m}"]
                            for m in MODULES]
        replace = {}  # id(function) -> wrapper; module values may be unhashable
        for mod, targets in TARGETS.items():
            home = sys.modules[f"{package.__name__}.{mod}"]
            for name, group in targets.items():
                owner, _, attr = name.rpartition(".")
                holder = getattr(home, owner, None) if owner else home
                fn = vars(holder).get(attr) if holder is not None else None
                if fn is None:
                    self.missing.append(f"{mod}.{name}")
                elif owner:  # methods live in one place: the class
                    setattr(holder, attr, self._wrap(fn, group))
                else:
                    replace[id(fn)] = self._wrap(fn, group)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def metrics(self, wall_s: float, output_bytes: int) -> dict:
        """Per-layer metrics of everything traced so far; `wall_s` is the
        traced requests' total latency.  trace.overhead_ratio is left to
        the caller, which also has the untraced time."""
        group, parent = self.group, self.parent
        start, end, book = self.start, self.end, self.book
        n, ngroups = len(group), len(self.groups)
        inner = array("d", bytes(8 * n))  # children's time inside each span
        for i in range(n):
            p = parent[i]
            if p >= 0:
                inner[p] += end[i] - start[i] + book[i]
        calls, own, incl = [0] * ngroups, [0.0] * ngroups, [0.0] * ngroups
        subtree = array("d", bytes(8 * n))  # self time of span + descendants
        has_mul = bytearray(n)
        mul = self.gid.get("qcore.mul", -1)
        rec = self.gid.get("whitney.recurrence", -1)
        hits = 0
        # Descendants have larger indices than their ancestors.
        for i in range(n - 1, -1, -1):
            g = group[i]
            t = end[i] - start[i] - inner[i]
            calls[g] += 1
            own[g] += t
            subtree[i] += t
            incl[g] += subtree[i]
            hits += g == rec and not has_mul[i]
            p = parent[i]
            if p >= 0:
                subtree[p] += subtree[i]
                if has_mul[i] or g == mul:
                    has_mul[p] = 1
        by = {name: k for k, name in enumerate(self.groups)}

        def get(table, name, default=0):
            return table[by[name]] if name in by else default

        out = dict(self.counts)
        for name in PER_LAYER:
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                out[name] = get(calls, head)
            elif tail == "self_s" and head in MODULES:
                out[name] = sum(own[k] for k, g in enumerate(self.groups)
                                if g.split(".")[0] == head)
            elif tail == "self_s":
                out[name] = get(own, head, 0.0)
            elif tail == "wall_s":
                out[name] = get(incl, head, 0.0)
        out["whitney.cache_hit_ratio"] = hits / max(get(calls, "whitney.recurrence"), 1)
        out["cli.output_bytes"] = output_bytes
        out["trace.unclaimed_ratio"] = (wall_s - sum(own)) / wall_s
        return out

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays."""
        with open(path, "wb") as fh:
            header = {"groups": self.groups, "spans": len(self.group),
                      "arrays": [["group", "H"], ["parent", "l"],
                                 ["start", "d"], ["end", "d"], ["book", "d"]],
                      "missing": self.missing}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.group, self.parent, self.start, self.end,
                        self.book):
                arr.tofile(fh)
