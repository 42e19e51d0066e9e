"""Self-test of the benchmark's own code at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload on tiny phantoms with small k, untraced and traced, and
asserts that each run is correct and reports every metric named in
BENCHMARK.json with its unit. It then corrupts rows of an FSS trace and
asserts that the checks catch them and that ok_ratio falls, checks the
compare verdicts on made-up results, and checks that a copy of the
benchmark without the program's sources fails without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import run
from checks import Checks, check_pass, read_csv, strl_count
from compare import verdict
from workloads import WORKLOADS, Layout, make_workload

WORK = run.WORK / "selftest"
SEED = 7


def check_workloads() -> None:
    spec = run.load_spec()
    for name in WORKLOADS:
        for trace in (False, True):
            rec = run.run(name, SEED, 0.0, trace, WORK / f"{name}-trace{int(trace)}", tiny=True)
            res = rec["result"]
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {sorted(set(want) ^ set(got))}"
            assert res["correct"] and res["failed"] == 0, f"{name}: {rec['failed_checks']}"
            assert res["attempted"] >= 1
            assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
            prov = rec["provenance"]
            for key in ("nproc", "python", "numpy", "blas", "commit", "seed", "inputs"):
                assert key in prov, key
            assert all(i["candidates"] > 0 and i["strl_bytes"] > 0 for i in prov["inputs"].values())
            print(f"ok: {name} trace={int(trace)} ({len(got)} metrics, {res['attempted']} attempted)")


def _ok_ratio(checks: Checks) -> float:
    return 1.0 - len(checks.failed) / checks.attempted


def check_corrupt_trace() -> None:
    """Reuses pass 0 of the untraced tiny default_box run above."""
    w = make_workload("default_box", SEED, tiny=True)
    lay = Layout(WORK / "default_box-trace0")
    inst = w.instances[0]
    printed = {inst.name: strl_count(lay.candidates(0, inst))}
    trace = lay.run_dir(0, inst, "fss") / "trace.csv"
    clean_text = trace.read_text(encoding="utf-8")

    clean = Checks()
    check_pass(clean, w, lay, 0, printed, deep=True)
    assert not clean.failed, clean.failed

    lines = clean_text.splitlines()
    rows = read_csv(trace)
    last = len(rows)  # the last step is always among the recomputed ones
    step, ident, dist = lines[last].split(",")
    corruptions = {
        "trace_distance_is_min_mdf": f"{step},{ident},{float(dist) * 0.999:.9g}",
        "trace_ids_unique": f"{step},{lines[1].split(',')[1]},{dist}",
    }
    for check, row in corruptions.items():
        trace.write_text("\n".join(lines[:last] + [row]) + "\n", encoding="utf-8")
        bad = Checks()
        check_pass(bad, w, lay, 0, printed, deep=True)
        assert any(name.endswith(check) for name in bad.failed), (check, bad.failed)
        assert _ok_ratio(bad) < _ok_ratio(clean)
        print(f"ok: corrupted trace row fails {check}; ok_ratio "
              f"{_ok_ratio(clean):.3f} -> {_ok_ratio(bad):.3f}")
    trace.write_text(clean_text, encoding="utf-8")


def check_verdicts() -> None:
    seeds = range(10)
    base = {s: 10.0 + 0.01 * s for s in seeds}
    assert verdict(base, dict(base), "lower", 0.1) == "unchanged"
    assert verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.1) == "improved"
    assert verdict(base, {s: v * 1.3 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert verdict(base, {s: v * 1.3 for s, v in base.items()}, "higher", 0.1) == "improved"
    noisy = {s: 10.0 * (1.5 if s % 2 else 0.6) for s in seeds}
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict({(0, 0): 5.0}, {(0, 0): 5.0}, "lower", None) == "unchanged"
    assert verdict({(0, 0): 5.0}, {(0, 0): 4.0}, "lower", 0.1) == "unresolved"
    print("ok: compare verdicts")


def check_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default_box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("ok: fails without the program's sources")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    check_workloads()
    check_corrupt_trace()
    check_verdicts()
    check_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
