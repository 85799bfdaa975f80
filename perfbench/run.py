"""Run one benchmark workload with one seed and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload nf-wide --seed 1 --seconds 20 --trace 0

Workloads: ``nf-wide``, ``basis-scan``, ``long-build`` (see workloads.py).
One process, one client, closed loop: each operation starts after the
previous one returns.  The seed drives every monomial, weight order and
random matrix; the library sees only the generated inputs.

Set-up runs SETUP_REPEATS times, spread over the run: each time, a child process
imports the library and the parent generates the instances and builds the
lattices the passes query.  The child imports ``toricbases`` alone: numpy,
which ``toricbases.oracle`` pulls in for the instance generators and the
checks, loads in a time set by the file system more than by the CPU, and
swings by a factor of two between runs.  With ``--trace 0`` the run reports the
end-to-end metrics.  With ``--trace 1`` it runs the same way with span
recording installed (tracing.py) and reports the per-layer metrics; spans
are written to ``.perfbench_out/``.  Every answer is checked outside the timed intervals;
each failed or wrong operation is printed with its reason.  A run is correct
only if no counted operation failed.  The known defect (enumerating the
1000-cycle lattice raises RecursionError) is run outside the counted and
timed operations and printed on its own line.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from clock import SpeedClock
from tracing import SELF_TIME, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_NF_SAMPLES = 110  # leaves at least ten samples beyond the p90
MAX_RUN_FACTOR = 3  # a run that needs more than this many times --seconds stops and fails
IMPORT_CHILD = (
    "from time import perf_counter\n"
    "start = perf_counter()\n"
    "import toricbases\n"
    "print(perf_counter() - start)\n"
)

END_TO_END = {
    "setup_s": "s",
    "nf_p50_ms": "ms",
    "nf_p90_ms": "ms",
    "build_total_s": "s",
    "work_s": "s",
    "peak_mem_mb": "MB",
}

PER_LAYER = {
    "graphs.ordering_s": "s",
    "graphs.ordering_calls": "count",
    "graphs.eliminate_s": "s",
    "lattice.build_s": "s",
    "lattice.builds": "count",
    "lattice.stored_rows": "rows",
    "lattice.max_clique": "count",
    "lattice.rows_over_bound": "ratio",
    "lattice.build_rows_per_s": "rows/s",
    "lattice.minimize_s": "s",
    "lattice.minimize_calls": "count",
    "lattice.sweep_rows": "rows",
    "lattice.sweep_rows_per_s": "rows/s",
    "lattice.count_s": "s",
    "lattice.count_calls": "count",
    "lattice.iterate_s": "s",
    "lattice.vectors_yielded": "count",
    "normalform.self_s": "s",
    "normalform.calls": "count",
    "normalform.jumps": "count",
    "normalform.jumps_per_call": "ratio",
    "bases.self_s": "s",
    "bases.scanned": "count",
    "bases.membership_tests": "count",
    "bases.sweeps_per_element": "ratio",
    "bases.accept_ratio": "ratio",
    "reductions.solve_ip_s": "s",
    "reductions.solve_ip_calls": "count",
    "reductions.embed_s": "s",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "oracle.verify_s": "s",
    "failed_frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.probe_ms": "ms",
}


SELF_TIMES = sorted(set(SELF_TIME.values()))


class Recorder:
    """Times operations, collects failures and the lattices' cost model.

    Every operation and every set-up or pass is kept as a wall-clock
    interval; time spent checking answers is left out of the intervals it
    falls in.
    """

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.ops: list[tuple[int, str, float, float]] = []  # unit, kind, start, end
        self.units: list[dict] = []
        self.count: Counter = Counter()  # ops per kind in passes
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []
        self.known: Counter = Counter()  # (label, outcome) of the known-defect calls
        self.import_s: list[tuple[float, float, float]] = []  # child import time, start, end
        self.lattices: dict[str, dict] = {}
        self.verify_s = 0.0
        self.built_rows = 0
        self.workdir = WORKDIR
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC))

    def unit(self, kind: str, fn, *args) -> None:
        """Run one set-up or pass."""
        unit = {"kind": kind, "begin": perf_counter(), "verify_s": self.verify_s}
        self.units.append(unit)
        fn(*args)
        unit["end"] = perf_counter()
        unit["wall"] = unit["end"] - unit["begin"] - (self.verify_s - unit["verify_s"])

    def op(self, kind, label, fn, *args, span=None):
        """Run and time one operation; a raised exception fails the op and
        the run goes on."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.span(span, fn, *args) if span else fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and printed
            result = None
            self.failures.append((label, type(exc).__name__, str(exc)[:200]))
        self.ops.append((len(self.units) - 1, kind, start, perf_counter()))
        if self.units[-1]["kind"] == "pass":
            self.count[kind] += 1
        return result

    def known_defect(self, label, exc_name, fn, check) -> None:
        """Run a call that fails at the seed with ``exc_name``, untimed and
        untraced, outside the counted operations.  That failure is tallied
        on its own; another exception or a wrong answer fails the run."""
        with self.verifying(label):
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001
                if type(exc).__name__ != exc_name:
                    raise
                self.known[(label, exc_name)] += 1
            else:
                self.known[(label, "ok")] += 1
                check(result)

    def child_import(self) -> None:
        """Import time of the library in a fresh child process, waited for."""
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], capture_output=True, text=True,
                              env=self.child_env, timeout=60, check=True)
        self.import_s.append((float(proc.stdout), start, perf_counter()))

    def span(self, name, fn, *args):
        return self.tracer.call(name, fn, *args) if self.tracer else fn(*args)

    @contextmanager
    def verifying(self, label="verify"):
        """Untimed, untraced answer checking; a check that raises counts as
        a wrong answer."""
        start = perf_counter()
        try:
            if self.tracer:
                with self.tracer.paused():
                    yield
            else:
                yield
        except Exception as exc:  # noqa: BLE001
            self.failures.append((label, "wrong answer", f"raised {type(exc).__name__}: {str(exc)[:200]}"))
        finally:
            self.verify_s += perf_counter() - start

    def check(self, label: str, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.append((label, "wrong answer", reason))

    def lattice(self, name, A, L) -> None:
        """Cost model next to the times: criterion 02 bounds stored rows by
        n * (2b+1)^clique with b the box or degree bound."""
        if L is None:  # the build failed and is already counted
            return
        bound = A.num_cols * (2 * L.bound + 1) ** L.realized_clique_number
        self.lattices[name] = {
            "kind": L.kind,
            "n": A.num_cols,
            "bound": L.bound,
            "clique": L.realized_clique_number,
            "stored_rows": L.total_rows(),
            "rows_over_bound": L.total_rows() / bound,
        }
        self.built_rows += L.total_rows()


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "recursion_limit": sys.getrecursionlimit(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(rec: Recorder, factor) -> dict:
    """The end-to-end metrics, each time multiplied by ``factor(start, end)``."""
    setups = [i for i, u in enumerate(rec.units) if u["kind"] == "setup"]
    passes = [i for i, u in enumerate(rec.units) if u["kind"] == "pass"]
    totals = [defaultdict(float) for _ in rec.units]
    nf = []
    for index, kind, start, end in rec.ops:
        took = (end - start) * factor(start, end)
        totals[index][kind] += took
        if kind == "nf" and rec.units[index]["kind"] == "pass":
            nf.append(took)

    def median_total(units, kind) -> float:
        return statistics.median(totals[i][kind] for i in units)

    imports = [took * factor(start, end) for took, start, end in rec.import_s]
    builds = [rec.units[i]["wall"] * factor(rec.units[i]["begin"], rec.units[i]["end"]) for i in setups]
    return {
        "setup_s": statistics.median(a + b for a, b in zip(imports, builds)),
        "nf_p50_ms": 1000 * statistics.median(nf),
        "nf_p90_ms": 1000 * (statistics.quantiles(nf, n=10)[8] if len(nf) > 1 else nf[0]),
        "build_total_s": median_total(setups, "build") + median_total(passes, "build"),
        "work_s": sum(sum(totals[i].values()) for i in passes) / len(passes),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rec: Recorder, wall_s: float) -> dict:
    m = rec.tracer.layer_metrics(wall_s)
    lattices = rec.lattices.values()
    m["lattice.stored_rows"] = rec.built_rows
    m["lattice.max_clique"] = max((x["clique"] for x in lattices), default=0)
    m["lattice.rows_over_bound"] = max((x["rows_over_bound"] for x in lattices), default=0.0)
    build_s = m["lattice.build_s"]
    m["lattice.build_rows_per_s"] = m["lattice.stored_rows"] / build_s if build_s else 0.0
    m["oracle.verify_s"] = rec.verify_s
    m["trace.probe_ms"] = 1000 * statistics.median(rec.clock.probe_s)
    known_failed = sum(n for (_, outcome), n in rec.known.items() if outcome != "ok")
    m["failed_frac"] = (len(rec.failures) + known_failed) / (rec.attempted + sum(rec.known.values()))
    return m


def report(args, rec: Recorder, metrics: dict, units: dict, raw: dict | None = None) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, record in rec.lattices.items():
        print(f"lattice {name} " + json.dumps(record, sort_keys=True))
    for kind in sorted({op[1] for op in rec.ops}):
        values = sorted(end - start for _, k, start, end in rec.ops if k == kind)
        print(f"ops {kind} (wall): n={len(values)} p50_ms={1000 * statistics.median(values):.3f} "
              f"max_ms={1000 * values[-1]:.3f} total_s={sum(values):.4f}")
    print(f"probe_ms p50={1000 * statistics.median(rec.clock.probe_s):.4f} n={len(rec.clock.probe_s)}")
    for label, kind, reason in rec.failures:
        print(f"failed {label}: {kind}: {reason}")
    for (label, kind), count in sorted(Counter((l, k) for l, k, _ in rec.failures).items()):
        print(f"failures {label} {kind} x{count}")
    for (label, outcome), count in sorted(rec.known.items()):
        print(f"known-defect {label} {outcome} x{count}")
    print(f"failed {len(rec.failures)}/{rec.attempted} counted ops")
    if rec.tracer:
        layers = sum(metrics[name] for name in SELF_TIMES) + (metrics["cli.import_ms"] + metrics["cli.command_ms"]) / 1000
        print(f"layers: self times {layers:.4f} s + untraced {metrics['trace.untraced_s']:.4f} s"
              f" = {layers + metrics['trace.untraced_s']:.4f} s of traced wall {metrics['trace.wall_s']:.4f} s")
    for name, unit in units.items():
        wall = f" (wall {raw[name]:.6g})" if raw else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{wall}")
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run_workload(args, rec: Recorder, workload) -> None:
    """Set-ups and passes until the run's time is up.  The set-ups are
    spread over the run, so that their median does not hang on the host's
    speed in the first seconds."""
    rng = random.Random(args.seed)
    start = perf_counter()
    setups = passes = 0
    while True:
        if setups < SETUP_REPEATS and perf_counter() - start >= setups * args.seconds / SETUP_REPEATS:
            rec.child_import()
            rec.unit("setup", workload.setup, rec, args.seed)
            setups += 1
        rec.unit("pass", workload.run_pass, rec, rng)
        passes += 1
        elapsed = perf_counter() - start
        # stop at the pass boundary nearest to the run's length
        if (elapsed + elapsed / passes / 2 >= args.seconds and passes >= workload.min_passes
                and rec.count["nf"] >= MIN_NF_SAMPLES):
            break
        if elapsed >= MAX_RUN_FACTOR * args.seconds:
            rec.failures.append(("run", "too few samples", f"{passes} passes, {rec.count['nf']} nf ops"))
            break
    for _ in range(setups, SETUP_REPEATS):
        rec.child_import()
        rec.unit("setup", workload.setup, rec, args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["nf-wide", "basis-scan", "long-build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = SRC / "toricbases"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"error: no library source at {package}; run from a repository checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import toricbases as tb

    if Path(tb.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"error: imported toricbases from {tb.__file__}, not {package}\n")
        return 2
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(tb)
    workload = WORKLOADS[args.workload]()
    with SpeedClock() as clock:
        rec = Recorder(tracer, clock)
        run_workload(args, rec, workload)
        clock.stop()

    if tracer:
        tracer.write(WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl")
        report(args, rec, per_layer(rec, sum(u["wall"] for u in rec.units)), PER_LAYER)
    else:
        scaled = end_to_end(rec, rec.clock.factor)
        raw = end_to_end(rec, lambda start, end: 1.0)
        report(args, rec, scaled, END_TO_END, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
