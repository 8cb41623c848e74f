"""Spans and counts recorded around hilbert_ggl's public functions.

The tracer patches the program from outside: each traced function is
replaced, in every ``hilbert_ggl`` module namespace that holds it, by a
wrapper that records a span (id, parent id, name, start, end).  Names are
patched where they are looked up, so ``cli`` calling ``scan`` and ``scan``
calling ``character_table`` both go through the wrapper.  Methods are
patched on their class.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name, count hook).  A count hook
# maps the call's result to (counter name, amount).
TARGETS = (
    ("hilbert_ggl.lfunctions", "character_table", "lfunctions.character_table",
     lambda r: ("lfunctions.character_table.entries", len(r))),
    ("hilbert_ggl.lfunctions", "closed_form_l1", "lfunctions.closed_form_l1", None),
    ("hilbert_ggl.lfunctions", "l2_certified", "lfunctions.l2_certified", None),
    ("hilbert_ggl.criteria", "verdict", "criteria.verdict", None),
    ("hilbert_ggl.scan", "scan", "scan.scan", None),
    ("hilbert_ggl.scan", "scan_field", "scan.scan_field", None),
    ("hilbert_ggl.elliptic", "elliptic_summary", "elliptic.elliptic_summary", None),
    ("hilbert_ggl.elliptic", "imag_class_numbers", "elliptic.imag_class_numbers", None),
    ("hilbert_ggl.field_invariants", "invariants", "field_invariants.invariants", None),
    ("hilbert_ggl.field_invariants", "class_number", "field_invariants.class_number", None),
    ("hilbert_ggl.field_invariants", "regulator", "field_invariants.regulator", None),
    # invariants() takes the regulator from the unit object, not regulator(D)
    ("hilbert_ggl.field_invariants", "FundamentalUnit.regulator", "field_invariants.regulator", None),
    ("hilbert_ggl.cusps", "cusp_cycle", "cusps.cusp_cycle", None),
    ("hilbert_ggl.cusps", "verify_cusp_tangency", "cusps.verify_cusp_tangency", None),
    ("hilbert_ggl.cusps", "chart_tangency", "cusps.chart_tangency", None),
    ("hilbert_ggl.reports", "ScanCache.load", "reports.ScanCache.load",
     lambda r: ("reports.ScanCache.load.records", len(r))),
    ("hilbert_ggl.reports", "ScanCache.append", "reports.ScanCache.append", None),
    ("hilbert_ggl.reports", "csv_rows", "reports.csv_rows",
     lambda r: ("reports.csv_rows.bytes", len(r.encode("utf-8")))),
    ("hilbert_ggl.reports", "build_field_document", "reports.build_field_document", None),
    ("hilbert_ggl.reports", "render_field_text", "reports.render_field_text", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if count is not None:
                key, amount = count(result)
                counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Patch every target in all loaded hilbert_ggl modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hilbert_ggl" or n.startswith("hilbert_ggl."))]
        for mod_name, attr, name, count in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append("%s.%s" % (mod_name, attr))
                continue
            wrapper = self.wrap(name, original, count)
            if owner_name:
                setattr(owner, method, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        self._count_quad_elems()

    def _count_quad_elems(self) -> None:
        quad = sys.modules["hilbert_ggl.quadratic"].QuadElem
        original = quad.__post_init__
        counts = self.counts

        @functools.wraps(original)
        def post_init(obj):
            counts["quadratic.QuadElem.constructed"] += 1
            original(obj)

        quad.__post_init__ = post_init

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named <module>.<function>.<stat>.

        ``.s`` is inclusive time, counted over the outermost span of each name
        so that nested same-name spans are not counted twice; ``self_s``
        subtracts the time covered by child spans.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: Counter = Counter()
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0

        def ancestors(sid):
            p = by_id[sid][1]
            while p >= 0:
                yield by_id[p][2]
                p = by_id[p][1]

        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for sid, _parent, name, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            if name not in ancestors(sid):
                incl[name] += t1 - t0
        rechecks = sum(1 for sid, _p, name, _a, _b in self.spans
                       if name == "field_invariants.class_number"
                       and "scan.scan_field" in ancestors(sid))
        root = incl["cli.main"]
        root_children = sum(child_time[s[0]] for s in self.spans if s[2] == "cli.main")
        out = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[name + ".s"] = incl[name]
        out.update({
            "lfunctions.character_table.calls": calls["lfunctions.character_table"],
            "scan.scan_field.calls": calls["scan.scan_field"],
            "scan.scan_field.ms_per_field": (1000.0 * incl["scan.scan_field"] / calls["scan.scan_field"]
                                             if calls["scan.scan_field"] else 0.0),
            "scan.exact_rechecks": rechecks,
            "scan.scan.self_s": self_s["scan.scan"],
            "cusps.charts": calls["cusps.chart_tangency"],
            "reports.ScanCache.append.calls": calls["reports.ScanCache.append"],
            "trace.spans": len(self.spans),
            "trace.wall_s": root,
            "trace.coverage": root_children / root if root else 0.0,
        })
        for key in ("lfunctions.character_table.entries", "reports.ScanCache.load.records",
                    "reports.csv_rows.bytes", "quadratic.QuadElem.constructed"):
            out[key] = self.counts[key]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
