"""Regenerate perfbench/reference.json, the exact answers the benchmark
checks against where the brute-force oracle is too slow to run per pass.

Run from the repository root:

    python3 perfbench/make_reference.py

Sources of each stored answer:

* basis fixtures whose box fits the oracle budget: the oracle's Graver set
  and reduced bases, checked equal to the library's;
* the 3 x 3 x 2 table at g=1 (a 3^18 box, above the oracle budget): the
  library's answer, after the library is checked against the oracle on the
  3 x 2 x 2 table of the same family under the same kind of order menu;
* ladder and cycle counts: a transfer-matrix count over the rungs and the
  one-generator cycle kernel, both independent of the lattice code.

Takes about ten seconds on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import toricbases as tb  # noqa: E402
from toricbases.oracle import graver_bruteforce, reduced_gb_bruteforce, threeway_table_matrix  # noqa: E402

import instances  # noqa: E402

ORACLE_FIXTURES = {"K34-g1", "K33-g2", "cubic-g3"}


def library_bases(A, g, menu):
    L = tb.build_lattice(A, g)
    graver = frozenset(tb.graver_basis(A, L).elements)
    groebner = []
    for w in menu:
        report = tb.reduced_groebner_basis(A, L, tb.MonomialOrder(w))
        groebner.append(frozenset((b.head, b.tail) for b in report.elements))
    return graver, groebner


def oracle_bases(A, g, menu):
    return graver_bruteforce(A, g), [reduced_gb_bruteforce(A, w, g) for w in menu]


def check_equal(label, got, want):
    if got != want:
        raise SystemExit(f"{label}: library and oracle disagree")
    print(f"{label}: library equals oracle")


def main() -> int:
    fixtures = {}
    for name, make, g in instances.FIXTURES:
        A = make()
        menu = instances.order_menu(A.num_cols)
        graver, groebner = library_bases(A, g, menu)
        if name in ORACLE_FIXTURES:
            check_equal(name, (graver, groebner), oracle_bases(A, g, menu))
        else:
            small = threeway_table_matrix(3, 2, 2)
            small_menu = instances.order_menu(small.num_cols)
            check_equal(
                f"{name} family check on 3x2x2",
                library_bases(small, g, small_menu),
                oracle_bases(small, g, small_menu),
            )
        fixtures[name] = {
            "graver": sorted(list(v) for v in graver),
            "groebner": [
                {"weights": list(w), "pairs": sorted([list(h), list(t)] for h, t in pairs)}
                for w, pairs in zip(menu, groebner)
            ],
        }

    k = instances.LADDER_RUNGS
    ladder = {
        "box_g1": str(instances.ladder_counts(k, 1, None)),
        "degree_d2": str(instances.ladder_counts(k, 2, 2)),
    }
    reference = {
        "fixtures": fixtures,
        "ladder": ladder,
        # kernel of an even cycle is spanned by one +-1 vector: {0, alt, -alt}
        "cycle": {"box_g1": "3"},
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
