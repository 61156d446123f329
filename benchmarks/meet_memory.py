"""Peak memory over distinct meets: bounded memos keep it flat.

Each count runs in a fresh interpreter, which meets and then compares
``count`` distinct pairs, and reports its peak resident set (``ru_maxrss``)
and its wall time.  Short pairs are (1, (10^6 + 3 + i)/1000) with (1, 5/3)
for i = 0, 1, ..., count - 1:

    python benchmarks/meet_memory.py 10000 30000

Exits 1 when the peak of the largest count exceeds that of the smallest by
more than 10%, as it does while a memo keeps every pair it has met.

With ``--long``, the pairs are the normalized (1, 10^5 + i) and
(1, 10^5 + i + 1/2), chains of about 10^5 steps each, and the peak of the
largest count may exceed that of the smallest by at most 50%, as it does
while a memo keeps more than a few such pairs:

    python benchmarks/meet_memory.py --long 10 100
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

# the growth allowed from the smallest count to the largest
TOLERANCE = {"short": 0.10, "long": 0.50}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_one(count: int, kind: str = "short") -> dict:
    from fractions import Fraction

    from valtree.valuation import compare, meet, monomial, normalize

    def pair(i):
        if kind == "long":
            return normalize(monomial(1, 10**5 + i)), normalize(monomial(1, 10**5 + i + Fraction(1, 2)))
        return monomial(1, Fraction(10**6 + 3 + i, 1000)), mu

    mu = monomial(1, Fraction(5, 3))
    t0 = time.perf_counter()
    for i in range(count):
        nu, other = pair(i)
        meet(nu, other)
        compare(nu, other)
    seconds = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"meets": count, "peak_rss_mb": round(peak, 1), "seconds": round(seconds, 2)}


def main(argv) -> int:
    mode = argv[:1] if argv[:1] == ["--long"] else []
    kind = "long" if mode else "short"
    argv = argv[len(mode):]
    if argv[:1] == ["--one"]:
        sys.path.insert(0, SRC)
        print(json.dumps(run_one(int(argv[1]), kind)))
        return 0
    counts = sorted(int(a) for a in argv) or ([10, 100] if kind == "long" else [10_000, 30_000])
    rows = []
    for count in counts:
        out = subprocess.run(
            [sys.executable, __file__, *mode, "--one", str(count)],
            check=True, capture_output=True, text=True,
        ).stdout
        rows.append(json.loads(out))
        print(out.strip())
    low, high = rows[0]["peak_rss_mb"], rows[-1]["peak_rss_mb"]
    if high > low * (1 + TOLERANCE[kind]):
        print(f"peak RSS grew {low} -> {high} MB from {counts[0]} to {counts[-1]} meets",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
