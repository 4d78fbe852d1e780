"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records that run.py wrote to ``.perfbench_out/results``
(copy them aside before measuring the other commit).  For every workload
and end-to-end metric this prints both sides' medians and quartiles and
the change of the median.  The change is flagged WORSE when it exceeds the
metric's bound, and "unresolved" when the base's own spread (quartile
distance over median) exceeds the bound.  Records whose kernel backends
differ are refused: numpy and numba timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], new: list[dict]) -> list[str]:
    backends = {r["env"].get("kernel_backend") for r in base + new}
    if len(backends) != 1:
        raise ValueError(f"kernel backends differ: {sorted(map(str, backends))}")
    lines = []
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for side, records in (("base", base), ("new", new)):
            bad = [r["seed"] for r in records if r["workload"] == workload and not r["correct"]]
            if bad:
                lines.append(f"{workload}: {side} runs with failed checks, seeds {bad}")
        for m in END_TO_END:
            b, n = ([r["metrics"][m.name]["value"] for r in records
                     if r["workload"] == workload and r["trace"] == 0 and m.name in r["metrics"]]
                    for records in (base, new))
            if not b or not n:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(b), quartiles(n)
            change = (nm - bm) / bm
            worse = change if m.better == "lower" else -change
            if (b3 - b1) / bm > m.bound:
                verdict = "unresolved"
            else:
                verdict = "WORSE" if worse > m.bound else "ok"
            lines.append(f"{workload:13s} {m.name:14s} base {bm:.5g} [{b1:.5g}, {b3:.5g}] "
                         f"(n={len(b)})  new {nm:.5g} [{n1:.5g}, {n3:.5g}] (n={len(n)})  "
                         f"{change:+.1%} {m.unit}, bound {m.bound:.0%}: {verdict}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any(line.endswith("WORSE") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
