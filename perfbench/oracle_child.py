"""Brute-force oracle answers for a batch of basis instances, computed in a
child process so the oracle's box enumeration stays out of the benchmark's
peak memory.

Reads a JSON list of {"matrix": text, "g": int, "weights": [...]} on stdin
and writes a JSON list of {"graver": [...], "groebner": [[head, tail], ...]}.
"""

import json
import sys

from toricbases import matrix_from_text
from toricbases.oracle import graver_bruteforce, reduced_gb_bruteforce


def main() -> int:
    out = []
    for item in json.load(sys.stdin):
        A, g = matrix_from_text(item["matrix"]), item["g"]
        out.append({
            "graver": sorted(graver_bruteforce(A, g)),
            "groebner": sorted(reduced_gb_bruteforce(A, item["weights"], g)),
        })
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
