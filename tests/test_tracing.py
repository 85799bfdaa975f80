"""The benchmark's tracer patches library functions by name; installing it
must keep working, so that a renamed or removed function fails here rather
than in the middle of a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import toricbases as tb
import tracing

tracer = tracing.Tracer()
tracer.install(tb)
A = tb.SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]])
L = tb.build_lattice(A, 3)
assert len(tb.graver_basis(A, L).elements) == 10
assert len(tb.reduced_groebner_basis(A, L, tb.MonomialOrder.grlex(4)).elements) == 3
# the reduced basis is read off the Graver basis, with no sweep
assert all(name != "lattice.minimize" for name, *_ in tracer.spans)
tb.normal_form_bounded(A, L, tb.MonomialOrder.grlex(4), (1, 0, 1, 0))
# the benchmark's graphs.ordering_s, graphs.eliminate_s and sweep counters
# read these spans, which a default build and a normal form record
names = {name for name, *_ in tracer.spans}
assert {"graphs.ordering", "graphs.eliminate", "lattice.minimize"} <= names, names
# the benchmark's lattice.iterate_s and vectors_yielded read these spans
assert len(list(L.iterate())) == L.count()
assert any(name == "lattice.iterate" and info for name, *_, info in tracer.spans)
"""


def test_tracer_installs_on_the_library():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
