"""Span recording for the traced pass, from outside the library.

Only the traced pass installs these wrappers.  Each wraps a public function
in the namespace that calls it, so the library's own calls are seen without
touching its source.  ``core`` is not wrapped: it runs per row inside the
other layers and its cost shows in their self time.
"""

from __future__ import annotations

import functools
import json
import weakref
from contextlib import contextmanager
from time import perf_counter

NF_SPANS = ("normalform.normal_form_bounded", "normalform.is_standard")
BASIS_SCANS = ("bases.graver_basis", "bases.reduced_groebner_basis")
MEMBERSHIP = ("bases.in_graver", "bases.in_reduced_gb")
SWEEPS = ("lattice.minimize", "lattice.count")

# span name -> per-layer self-time metric (seconds); cli.run is split apart
# into import and command time from the child's -X importtime report
SELF_TIME = {
    "graphs.ordering": "graphs.ordering_s",
    "graphs.eliminate": "graphs.eliminate_s",
    "lattice.build": "lattice.build_s",
    "lattice.minimize": "lattice.minimize_s",
    "lattice.count": "lattice.count_s",
    "lattice.iterate": "lattice.iterate_s",
    **{name: "normalform.self_s" for name in NF_SPANS},
    **{name: "bases.self_s" for name in BASIS_SCANS + MEMBERSHIP},
    "reductions.solve_ip": "reductions.solve_ip_s",
    "reductions.embed": "reductions.embed_s",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, info].

    ``info`` is the lattice's stored rows for a sweep, the boolean answer of
    a membership test, and whether an enumeration step yielded a vector.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self.cli_import_s = 0.0

    def call(self, name, fn, *args, info=None):
        if self._paused:
            return fn(*args)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if name in MEMBERSHIP:
            span[4] = bool(result)
        return result

    @contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return self.call(name, fn, *args)

        return wrapper

    def install(self, tb) -> None:
        """Patch the library's modules; the process ends with them patched."""
        rows = weakref.WeakKeyDictionary()

        def sweep(name, method):
            @functools.wraps(method)
            def wrapper(lattice, *args):
                n = rows.get(lattice)
                if n is None:
                    n = rows[lattice] = lattice.total_rows()
                return self.call(name, method, lattice, *args, info=n)

            return wrapper

        def enumeration(method):
            @functools.wraps(method)
            def wrapper(lattice):
                it = method(lattice)
                sentinel = object()
                while True:
                    index = len(self.spans)
                    value = self.call("lattice.iterate", next, it, sentinel)
                    if value is sentinel:
                        return
                    if not self._paused:
                        self.spans[index][4] = True
                    yield value

            return wrapper

        cls = tb.lattice.KernelLattice
        cls.minimize = sweep("lattice.minimize", cls.minimize)
        cls.count = sweep("lattice.count", cls.count)
        cls.iterate = enumeration(cls.iterate)
        tb.lattice.min_fill_ordering = self.wrap("graphs.ordering", tb.lattice.min_fill_ordering)
        tb.lattice.eliminate = self.wrap("graphs.eliminate", tb.lattice.eliminate)
        for name in ("normal_form_bounded", "is_standard"):
            setattr(tb.bases, name, self.wrap(f"normalform.{name}", getattr(tb.bases, name)))
        for name in ("in_graver", "in_reduced_gb"):
            setattr(tb.bases, name, self.wrap(f"bases.{name}", getattr(tb.bases, name)))

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds, measured on an empty call."""
        probe = Tracer()

        def noop():
            return None

        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            probe.call("probe", noop)
        return max(perf_counter() - start - bare, 0.0) / calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals over every recorded span.

        Self time is a span's duration minus its children's.  Every span name
        maps to one layer, so the self times plus ``trace.untraced_s`` add up
        to ``wall_s``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        m: dict[str, float] = {key: 0.0 for key in set(SELF_TIME.values())}
        m.update(
            {
                "graphs.ordering_calls": 0,
                "lattice.minimize_calls": 0,
                "lattice.count_calls": 0,
                "lattice.vectors_yielded": 0,
                "lattice.sweep_rows": 0,
                "lattice.builds": 0,
                "normalform.calls": 0,
                "normalform.jumps": 0,
                "bases.scanned": 0,
                "bases.membership_tests": 0,
                "reductions.solve_ip_calls": 0,
                "cli.import_ms": 1000 * self.cli_import_s,
            }
        )
        cli_s = 0.0
        kept = sweeps_in_bases = 0
        top = 0.0

        def under(index: int, names) -> bool:
            while index >= 0:
                if spans[index][0] in names:
                    return True
                index = spans[index][3]
            return False

        for i, (name, start, end, parent, info) in enumerate(spans):
            own = end - start - child[i]
            if parent < 0:
                top += end - start
            if name == "cli.run":
                cli_s += own
                continue
            m[SELF_TIME[name]] += own
            if name == "graphs.ordering":
                m["graphs.ordering_calls"] += 1
            elif name == "lattice.build":
                m["lattice.builds"] += 1
            elif name in SWEEPS:
                m[name + "_calls"] += 1
                m["lattice.sweep_rows"] += info
                if parent >= 0 and spans[parent][0] in NF_SPANS and name == "lattice.minimize":
                    m["normalform.jumps"] += 1
                if under(parent, BASIS_SCANS + MEMBERSHIP):
                    sweeps_in_bases += 1
            elif name == "lattice.iterate" and info:
                m["lattice.vectors_yielded"] += 1
                if parent >= 0 and spans[parent][0] in BASIS_SCANS:
                    m["bases.scanned"] += 1
            elif name in NF_SPANS:
                m["normalform.calls"] += 1
            elif name in MEMBERSHIP:
                m["bases.membership_tests"] += 1
                kept += bool(info)
            elif name == "reductions.solve_ip":
                m["reductions.solve_ip_calls"] += 1

        m["cli.command_ms"] = 1000 * cli_s - m["cli.import_ms"]
        sweep_s = m["lattice.minimize_s"] + m["lattice.count_s"]
        m["lattice.sweep_rows_per_s"] = _ratio(m["lattice.sweep_rows"], sweep_s)
        m["normalform.jumps_per_call"] = _ratio(m["normalform.jumps"], m["normalform.calls"])
        m["bases.sweeps_per_element"] = _ratio(sweeps_in_bases, m["bases.scanned"])
        m["bases.accept_ratio"] = _ratio(kept, m["bases.membership_tests"])
        m["trace.wall_s"] = wall_s
        m["trace.untraced_s"] = wall_s - top
        m["trace.overhead_frac"] = _ratio(len(spans) * self.span_cost(), wall_s)
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
