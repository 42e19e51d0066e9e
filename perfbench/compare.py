"""Before/after diff of two benchmark result files.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the JSON lines that perfbench/run.py appends with --out.
For every workload and metric present in both, one row gives each side's
median and quartiles over its runs, the change of the median, and a verdict
against the bounds in BENCHMARK.json:

  improved    the after side wins at least 9 in 10 runs paired by seed
              (with no seed in common: every after run beats every before
              run), and its median moved by more than the before side's
              quartile spread;
  worse       the median got worse by more than the metric's bound, or, for
              a per-layer metric without a bound, the mirror of improved;
  unresolved  a side has fewer than 2 runs, or its quartile spread is wider
              than the bound, so no change within it can be told from noise;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> tuple[dict, dict]:
    """(workload, metric) -> {(seed, repeat): value}, plus metric units.

    repeat numbers the runs of one workload and seed in file order, so the
    n-th run of a seed pairs with the n-th run of that seed on the other side.
    """
    out: dict = defaultdict(dict)
    units, repeats = {}, Counter()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        run = (rec["seed"], repeats[(rec["workload"], rec["seed"], rec["trace"])])
        repeats[(rec["workload"], rec["seed"], rec["trace"])] += 1
        for name, m in rec["result"]["metrics"].items():
            out[(rec["workload"], name)][run] = m["value"]
            units[name] = m["unit"]
    return out, units


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(before: dict, after: dict, better: str, bound: float | None) -> str:
    """One of improved, worse, unresolved, unchanged (see the module doc)."""
    b, a = list(before.values()), list(after.values())
    (b1, bm, b3), (a1, am, a3) = quartiles(b), quartiles(a)
    sign = 1.0 if better == "lower" else -1.0
    if bm == am and b1 == b3 and a1 == a3:
        return "unchanged"
    scale = abs(bm) if bm else 1.0
    worse_by = sign * (am - bm) / scale
    spread = max((b3 - b1) / scale, (a3 - a1) / (abs(am) if am else 1.0))

    def wins(x, y):
        return sign * (y - x) < 0

    seeds = sorted(set(before) & set(after))
    if seeds:
        won = sum(wins(before[s], after[s]) for s in seeds) / len(seeds)
        lost = sum(wins(after[s], before[s]) for s in seeds) / len(seeds)
    else:
        won = float(all(wins(x, y) for x in b for y in a))
        lost = float(all(wins(y, x) for x in b for y in a))
    moved = abs(am - bm) / scale > (b3 - b1) / scale
    enough = len(b) >= 2 and len(a) >= 2
    if enough and won >= WIN_SHARE and moved and worse_by < 0:
        return "improved"
    if bound is None:
        return "worse" if enough and lost >= WIN_SHARE and moved and worse_by > 0 else "unresolved"
    if worse_by > bound:
        return "worse"
    if not enough or spread > bound:
        return "unresolved"
    return "unchanged"


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    (before, units), (after, _) = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<15} {'metric':<31} {'before: median [q1, q3]':>38} "
          f"{'after: median [q1, q3]':>38} {'delta':>8}  verdict")
    for key in sorted(set(before) & set(after)):
        workload, metric = key
        better, bound = rules.get(metric, ("lower", None))
        v = verdict(before[key], after[key], better, bound)
        b, a = quartiles(list(before[key].values())), quartiles(list(after[key].values()))
        delta = (a[1] - b[1]) / abs(b[1]) * 100.0 if b[1] else 0.0
        print(f"{workload:<15} {metric:<31} {_cell(b):>38} {_cell(a):>38} {delta:>+7.1f}%  "
              f"{v} ({units.get(metric, '')}, {better} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
