"""The three workloads.  run.py calls ``setup`` several times over a run and
``run_pass`` until the run's time is up; a pass runs seeded operations one
at a time in a closed loop.  Every operation goes through ``rec.op``, which
times it; every answer is checked inside ``rec.verifying()``, which is not
timed.

Operation kinds:  ``nf`` (normal_form_bounded, the population of the nf
percentiles), ``ip`` (the integer-programming route), ``build`` (orderings
and lattice constructions), ``graver``, ``groebner``, ``cli`` (one-shot CLI
subprocess), and workload-specific kinds for everything else.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import toricbases as tb
from toricbases import oracle
from toricbases.graphs import cycle_graph

import instances

NF_OP = "normalform.normal_form_bounded"


class NfWide:
    """Normal forms on the K_{3,4} incidence lattice at g=2 (12 columns,
    clique 8, 10.5k rows), each checked against the IP route."""

    name = "nf-wide"
    batch = 25
    min_passes = 3

    def __init__(self):
        self.calls = 0

    def setup(self, rec, seed: int) -> None:
        self.A = oracle.two_by_two_minors_matrix(3, 4)
        self.L = rec.op("build", "K34.build", tb.build_lattice, self.A, 2, span="lattice.build")
        rec.lattice("K34-g2", self.A, self.L)

    def order(self, rng) -> tb.MonomialOrder:
        n = self.A.num_cols
        self.calls += 1
        turn = self.calls % 3
        if turn == 0:
            return tb.MonomialOrder.lex(n)
        if turn == 1:
            return tb.MonomialOrder.grlex(n)
        return tb.MonomialOrder(tuple(rng.randint(0, 5) for _ in range(n)))

    def run_pass(self, rec, rng) -> None:
        A, L = self.A, self.L
        for _ in range(self.batch):
            u = tuple(rng.randint(0, 2) for _ in range(A.num_cols))
            order = self.order(rng)
            nf = rec.op("nf", "nf", tb.normal_form_bounded, A, L, order, u, span=NF_OP)
            ip = rec.op("ip", "ip", ip_route, rec, A, order, u)
            if nf is not None and ip is not None:
                with rec.verifying():
                    rec.check("nf", nf.normal_exponent == ip, f"lattice and IP routes differ on u={u}")


def ip_route(rec, A, order, u):
    program = rec.span("reductions.embed", tb.normalform_to_ip, A, order, u)
    return rec.span("reductions.solve_ip", tb.solve_ip, program)


class BasisScan:
    """Graver and reduced Groebner bases on four fixtures and a seeded slice
    of the acceptance-pool distribution, plus normal forms on the K_{3,4}
    fixture lattice and one-shot CLI calls."""

    name = "basis-scan"
    min_passes = 3
    probes = 48  # normal forms per pass, on one fixture so they form one population
    # Six instances per (rows, bound) stratum, with the column count cycling
    # through 2..6 as in the acceptance pool, so every seed draws the same
    # mix of sizes and only the entries vary.  The pool caps the kernel box
    # (2g+1)^(n-m) at 2500; the slice caps it at 130 so that the largest
    # instances do not decide a pass's time on their own.
    slice_size = 54
    slice_cap = 130

    def __init__(self):
        self.slice_truth = None  # oracle answers; the slice is the same in every setup

    def setup(self, rec, seed: int) -> None:
        reference = instances.load_reference()["fixtures"]
        self.fixtures = []
        for name, make, g in instances.FIXTURES:
            A = make()
            L = rec.op("build", f"{name}.build", tb.build_lattice, A, g, span="lattice.build")
            rec.lattice(name, A, L)
            ref = reference[name]
            menu = [
                (tuple(entry["weights"]), frozenset((tuple(h), tuple(t)) for h, t in entry["pairs"]))
                for entry in ref["groebner"]
            ]
            graver = frozenset(tuple(v) for v in ref["graver"])
            self.fixtures.append((name, A, g, L, graver, menu))

        rng = random.Random(f"basis-scan slice {seed}")
        self.slice = []
        for i in range(self.slice_size):
            m, g, n = 1 + i % 3, 1 + (i // 3) % 3, 2 + (i // 9) % 5
            while (2 * g + 1) ** max(0, n - m) > self.slice_cap:
                n -= 1
            n = max(n, 2)
            A = oracle.random_sparse_matrix(m, n, 2, 0.25 + 0.35 * rng.random(), rng.randrange(2**30))
            weights = tuple(rng.randint(0, 4) for _ in range(n))
            L = rec.op("build", f"slice{i}.build", tb.build_lattice, A, g, span="lattice.build")
            rec.lattice(f"slice{i}", A, L)
            self.slice.append((f"slice{i}", A, g, L, weights))

        _, cubic, g, *_ = self.fixtures[-1]
        self.cubic_bound = g
        self.cubic_file = rec.workdir / "cubic.txt"
        self.cubic_file.write_text(tb.matrix_to_text(cubic))

    def run_pass(self, rec, rng) -> None:
        cubic_results = None
        for name, A, g, L, graver, menu in self.fixtures:
            weights, gb = menu[rng.randrange(len(menu))]
            order = tb.MonomialOrder(weights)
            G = rec.op("graver", f"{name}.graver", tb.graver_basis, A, L, span="bases.graver_basis")
            R = rec.op("groebner", f"{name}.groebner", tb.reduced_groebner_basis, A, L, order,
                       span="bases.reduced_groebner_basis")
            with rec.verifying():
                if G is not None:
                    rec.check(f"{name}.graver", frozenset(G.elements) == graver, "Graver set differs from reference")
                if R is not None:
                    rec.check(f"{name}.groebner", pairs(R) == gb, f"reduced basis differs under weights {weights}")
            cubic_results = (weights, G, R)

        name, A, g, L, _, menu = self.fixtures[0]
        for i in range(self.probes):
            weights, gb = menu[i % len(menu)]  # equal shares, so the percentiles see one mix
            order = tb.MonomialOrder(weights)
            u = tuple(rng.randint(0, g) for _ in range(A.num_cols))
            nf = rec.op("nf", f"{name}.nf", tb.normal_form_bounded, A, L, order, u, span=NF_OP)
            if nf is not None:
                with rec.verifying():
                    want = tb.reduce_by_basis([tb.Binomial(h, t) for h, t in gb], order, u)
                    rec.check(f"{name}.nf", nf.normal_exponent == want, f"normal form of {u} differs from division")

        results = []
        for name, A, g, L, weights in self.slice:
            order = tb.MonomialOrder(weights)
            G = rec.op("graver", f"{name}.graver", tb.graver_basis, A, L, span="bases.graver_basis")
            R = rec.op("groebner", f"{name}.groebner", tb.reduced_groebner_basis, A, L, order,
                       span="bases.reduced_groebner_basis")
            results.append((name, G, R))
        with rec.verifying():
            if self.slice_truth is None:
                self.slice_truth = oracle_answers(rec, self.slice)
            for (name, G, R), (graver, gb) in zip(results, self.slice_truth):
                if G is not None:
                    rec.check(f"{name}.graver", frozenset(G.elements) == graver, "Graver set differs from oracle")
                if R is not None:
                    rec.check(f"{name}.groebner", pairs(R) == gb, "reduced basis differs from oracle")

        weights, G, R = cubic_results
        common = ["--matrix", str(self.cubic_file), "--bound", str(self.cubic_bound)]
        got = rec.op("cli", "cli.graver", run_cli, rec, ["graver", *common], span="cli.run")
        if got is not None and G is not None:
            with rec.verifying():
                want = [list(v) for v in G.elements]
                rec.check("cli.graver", got.get("elements") == want, "CLI Graver JSON differs from the library")
        order_arg = "weights:" + ",".join(map(str, weights))
        got = rec.op("cli", "cli.groebner", run_cli, rec, ["groebner", *common, "--order", order_arg], span="cli.run")
        if got is not None and R is not None:
            with rec.verifying():
                want = [{"head": list(b.head), "tail": list(b.tail)} for b in R.elements]
                rec.check("cli.groebner", got.get("elements") == want, "CLI Groebner JSON differs from the library")


def oracle_answers(rec, entries):
    """Oracle Graver sets and reduced bases for the slice, from a child
    process (oracle_child.py), waited for."""
    batch = [{"matrix": tb.matrix_to_text(A), "g": g, "weights": list(w)} for _, A, g, _, w in entries]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("oracle_child.py"))],
        input=json.dumps(batch), capture_output=True, text=True, env=rec.child_env, timeout=150, check=True,
    )
    return [
        (frozenset(tuple(v) for v in item["graver"]),
         frozenset((tuple(h), tuple(t)) for h, t in item["groebner"]))
        for item in json.loads(proc.stdout)
    ]


def pairs(report) -> frozenset:
    return frozenset((b.head, b.tail) for b in report.elements)


def run_cli(rec, argv: list[str]) -> dict:
    """One ``python -m toricbases.cli`` subprocess, waited for; with tracing
    on, the child reports its import time through ``-X importtime``."""
    flags = ["-X", "importtime"] if rec.tracer else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "toricbases.cli", *argv],
        capture_output=True, text=True, env=rec.child_env, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if rec.tracer:
        rec.tracer.cli_import_s += import_seconds(proc.stderr)
    return json.loads(proc.stdout)


def import_seconds(stderr: str) -> float:
    """Total import time from ``-X importtime``: the cumulative column of the
    top-level (unindented) modules."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        if not parts[2][1:].startswith(" "):
            total += int(parts[1])
    return total / 1e6


class LongBuild:
    """Long, low-width constructions: the 2 x 300 ladder (898 columns) at
    g=1 and d=2, the 1000-cycle at g=1 with normal forms and enumeration, and
    the vertex cover of C5 through its normal-form embedding."""

    name = "long-build"
    min_passes = 1
    cycle_probes = 110  # nf samples per pass on the cycle lattice
    ladder_probes = 3

    def setup(self, rec, seed: int) -> None:
        self.ladder, self.ladder_cols = instances.ladder_matrix()
        self.cycle = oracle.incidence_matrix(cycle_graph(instances.CYCLE_LENGTH))
        self.alt = instances.cycle_alternating(instances.CYCLE_LENGTH)
        self.c5 = cycle_graph(5)
        self.cover_ip = tb.vertex_cover_ip(self.c5)
        self.reference = instances.load_reference()

    def run_pass(self, rec, rng) -> None:
        A, ref = self.ladder, self.reference
        ordering = rec.op("build", "ladder.ordering", ladder_ordering, A, span="graphs.ordering")
        if ordering is not None:
            L1 = rec.op("build", "ladder.build_g1", tb.build_lattice, A, 1, ordering, span="lattice.build")
            L2 = rec.op("build", "ladder.build_d2", tb.build_truncated_lattice, A, 2, ordering,
                        span="lattice.build")
            for name, L, key in (("ladder-g1", L1, "box_g1"), ("ladder-d2", L2, "degree_d2")):
                if L is None:
                    continue
                rec.lattice(name, A, L)
                label = f"{name}.count"
                c = rec.op("count", label, lambda: L.count())
                if c is not None:
                    with rec.verifying():
                        rec.check(label, str(c) == ref["ladder"][key], "count differs from the transfer-matrix value")
            if L1 is not None:
                n = A.num_cols
                for _ in range(self.ladder_probes):
                    u = tuple(rng.randint(0, 1) for _ in range(n))
                    weights = tuple(rng.randint(0, 3) for _ in range(n))
                    order = tb.MonomialOrder(weights)
                    nf = rec.op("nf_ladder", "ladder.nf", tb.normal_form_bounded, A, L1, order, u, span=NF_OP)
                    if nf is not None:
                        with rec.verifying():
                            r = nf.normal_exponent
                            rec.check("ladder.nf", min(r) >= 0 and A.apply(r) == A.apply(u)
                                      and order.key(r) <= order.key(u), "not a smaller congruent monomial")
                            reason = instances.ladder_violation(instances.LADDER_RUNGS, self.ladder_cols, weights, r)
                            rec.check("ladder.nf", reason is None, f"not standard: {reason}")

        # The cycle's operations are attempted even if its build failed, so
        # that each of them fails and is counted.
        C = self.cycle
        L = rec.op("build", "cycle.build", tb.build_lattice, C, 1, span="lattice.build")
        rec.lattice("cycle-g1", C, L)
        c = rec.op("count", "cycle.count", lambda: L.count())
        if c is not None:
            with rec.verifying():
                rec.check("cycle.count", str(c) == ref["cycle"]["box_g1"], "count differs from {0, +-alt}")
        want = {(0,) * C.num_cols, self.alt, tuple(-x for x in self.alt)}
        rec.known_defect("cycle.iterate", "RecursionError", lambda: list(L.iterate()), lambda vectors: rec.check(
            "cycle.iterate", sorted(vectors) == sorted(want), "enumeration differs from {0, +-alt}"))
        n = C.num_cols
        for _ in range(self.cycle_probes):
            u = tuple(rng.randint(0, 1) for _ in range(n))
            order = tb.MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
            nf = rec.op("nf", "cycle.nf", tb.normal_form_bounded, C, L, order, u, span=NF_OP)
            if nf is not None:
                with rec.verifying():
                    want_nf = instances.cycle_normal_form(self.alt, order, u)
                    rec.check("cycle.nf", nf.normal_exponent == want_nf, "differs from the exact cycle normal form")

        self.cover(rec)

    def cover(self, rec) -> None:
        ip = self.cover_ip
        red = rec.op("embed", "cover.embed", tb.ip_to_normalform, ip, span="reductions.embed")
        if red is None:
            return
        c, t = red.source_objective, red.source_upper
        bound = max([sum(abs(cj) * tj for cj, tj in zip(c, t)), 1, *t])
        L = rec.op("build", "cover.build", tb.build_lattice, red.matrix, bound, span="lattice.build")
        if L is None:
            return
        rec.lattice("cover-C5", red.matrix, L)
        nf = rec.op("nf_cover", "cover.nf", tb.normal_form_bounded, red.matrix, L, red.order,
                    red.start_exponent, span=NF_OP)
        if nf is None:
            return
        solved = rec.op("embed", "cover.extract", red.extract_solution, nf.normal_exponent, span="reductions.embed")
        direct = rec.op("ip", "cover.solve_ip", tb.solve_ip, ip, span="reductions.solve_ip")
        if solved is None or direct is None:
            return
        with rec.verifying():
            z, size = solved
            direct_size = sum(cj * xj for cj, xj in zip(ip.objective, direct))
            covered = all(z[a] or z[b] for a, b in self.c5.edges)
            rec.check("cover", covered and size == 3 == direct_size,
                      f"cover size {size}, direct {direct_size}, covers every edge: {covered}")


def ladder_ordering(A):
    return tb.min_fill_ordering(tb.column_graph(A))


WORKLOADS = {w.name: w for w in (NfWide, BasisScan, LongBuild)}
