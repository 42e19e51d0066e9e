"""Benchmark of the muscletract CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root. NAME is one of the workloads in
BENCHMARK.json, or `all` for each of them in a fresh process. With --trace 0 every command of the workload runs
as its own `python -m muscletract` process, one at a time, and the run
prints the end-to-end metrics. With --trace 1 the same commands run
in-process through muscletract.cli.main with spans around the library calls,
and the run prints the per-layer metrics and writes the spans.

The workload's inputs are written first (set-up, timed on its own); then
whole passes of the workload repeat until S seconds have passed, and times
are medians over passes. Outputs are checked after every pass. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The same record, with provenance, is appended to FILE
(default .bench_work/results.jsonl); perfbench/compare.py diffs two such
files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread in this process and every command it starts: on a
# shared 2-core machine a second thread waits on whichever core the host
# takes away, and the run then times the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import (Checks, check_pass, check_repeat, digest, input_sizes, pass_outputs,
                    quality)
from tracing import Tracer, layer_metrics, self_times
from workloads import (FILTER, REPORT, TRACK, WORKLOADS, Layout, make_dirs, make_workload,
                       pass_steps, setup_steps)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run must end within 180 s: no pass starts once the next would likely end
# after this many seconds of measuring.
PASS_WINDOW_S = 120.0
CMD_TIMEOUT_S = 170.0
IMPORT_REPS = 5


@dataclass
class Cmd:
    kind: str
    instance: str
    code: int
    seconds: float
    cpu: float
    rss_kb: int
    stdout: str


@dataclass
class Pass:
    index: int
    cmds: list[Cmd]
    wall: float
    spans: list | None = None

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.cmds)


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(step, log: Path) -> Cmd:
    """One CLI command in its own interpreter; wall and CPU time include start-up.

    The CPU time is the process's user + system time as wait4 reports it. It
    leaves out the time the process waited for a core or for the disk, so it
    moves less than wall time when other tenants load the host.
    """
    with open(log, "w+b") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "muscletract", *step.argv],
                                env=_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        out = fh.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        print(f"command failed ({proc.returncode}): {' '.join(step.argv)}\n{out}", file=sys.stderr)
    return Cmd(step.kind, step.instance, proc.returncode, seconds,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out)


def run_inprocess(step, tracer) -> Cmd:
    """One CLI command through muscletract.cli.main inside a span."""
    from muscletract import cli

    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with tracer.span(f"cli.{step.argv[0]}"), contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(step.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report it as a failed command, like a crashed process
            traceback.print_exc()
            code = 1
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        print(f"command failed ({code}): {' '.join(step.argv)}", file=sys.stderr)
    return Cmd(step.kind, step.instance, code, seconds, cpu, 0, buf.getvalue())


def printed_counts(cmds: list[Cmd]) -> tuple[dict, dict]:
    """Seed and streamline counts each instance's track command printed."""
    seeds, tracks = {}, {}
    for cmd in cmds:
        m = re.search(r"track: (\d+) seeds -> (\d+) streamlines", cmd.stdout)
        if cmd.kind == "track" and m:
            seeds[cmd.instance], tracks[cmd.instance] = int(m.group(1)), int(m.group(2))
    return seeds, tracks


def run_passes(w, lay, seconds: float, execute, tracer=None) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        i = len(passes)
        make_dirs(w, lay, i)
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        cmds = []
        with tracer.span("pass") if tracer else contextlib.nullcontext():
            for step in pass_steps(w, lay, i):
                cmds.append(execute(step))
                if cmds[-1].code != 0:
                    break
        p = Pass(i, cmds, time.perf_counter() - t0)
        if tracer:
            p.spans = tracer.spans[first:]
        passes.append(p)
        elapsed = time.perf_counter() - start
        if (cmds[-1].code != 0 or elapsed >= seconds
                or elapsed + max(q.wall for q in passes) > PASS_WINDOW_S):
            return passes


def check_passes(checks, w, lay, passes: list[Pass]) -> None:
    first = None
    for p in passes:
        if any(c.code != 0 for c in p.cmds):
            continue
        check_pass(checks, w, lay, p.index, printed_counts(p.cmds)[1], deep=first is None)
        if first is None:
            paths = pass_outputs(w, lay, p.index)
            first = digest(paths) if all(q.is_file() for q in paths) else []
        else:
            check_repeat(checks, w, lay, p.index, first)


def end_to_end(w, lay, setup: list[float], passes: list[Pass], ok_ratio: float) -> dict:
    values = {
        "cpu_s": statistics.median([p.cpu for p in passes]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c.rss_kb for p in passes for c in p.cmds) / 1024.0,
        "ok_ratio": ok_ratio,
    }
    try:
        q = quality(w, lay, passes[0].index)
        values.update(fss_sc=q.fss_sc, fss_sdcv=q.fss_sdcv, fl_err_pct=q.fl_err_pct,
                      ordering_ratio=q.ordering_ratio)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        print(f"quality figures unavailable: {exc!r}", file=sys.stderr)
    return values


def import_seconds() -> float:
    """Median wall time of a bare `import muscletract` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import muscletract; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                             text=True, timeout=CMD_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def per_layer(setup_spans: list, passes: list[Pass]) -> dict:
    rows = [layer_metrics(p.spans) for p in passes]
    values = {name: statistics.median([r[name] for r in rows]) for name in rows[0]}
    for kind in (TRACK, FILTER, REPORT):
        values[f"cli.{kind}_cmd_s"] = statistics.median([command_seconds(p, kind) for p in passes])
    values["phantom.make_phantom_s"] = self_times(setup_spans)[0]["phantom.make_phantom"]
    values["trace.wall_s"] = statistics.median([p.wall for p in passes])
    return values


def command_seconds(p: Pass, kind: str) -> float:
    return sum(c.seconds for c in p.cmds if c.kind == kind)


def provenance(w, seed: int, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(),
        "workload": w.name,
        "seed": seed,
        "inputs": sizes,
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result record (result plus provenance)."""
    spec = load_spec()
    w = make_workload(name, seed, tiny)
    shutil.rmtree(work, ignore_errors=True)
    lay = Layout(work)
    for inst in w.instances:
        lay.inputs(inst).mkdir(parents=True, exist_ok=True)
    checks = Checks()
    commands: list[Cmd] = []

    if trace:
        tracer = Tracer()
        execute = functools.partial(run_inprocess, tracer=tracer)
        with tracer.instrument():
            with tracer.span("setup"):
                commands += [execute(s) for s in setup_steps(w, lay)]
            setup_spans = list(tracer.spans)
            passes = run_passes(w, lay, seconds, execute, tracer) if _ok(commands) else []
    else:
        execute = functools.partial(run_process, log=work / "command.log")
        setup_times = []
        for _ in range(w.setup_reps):
            rep = [execute(s) for s in setup_steps(w, lay)]
            setup_times.append(sum(c.cpu for c in rep))
            commands += rep
        passes = run_passes(w, lay, seconds, execute) if _ok(commands) else []
    commands += [c for p in passes for c in p.cmds]
    check_passes(checks, w, lay, passes)
    if trace and passes:
        checks.check("counts_repeat_across_passes",
                     all(layer_counts(p) == layer_counts(passes[0]) for p in passes))

    attempted = len(commands) + checks.attempted
    failed = sum(c.code != 0 for c in commands) + len(checks.failed)
    values = {}
    if passes and trace:
        values = per_layer(setup_spans, passes)
        values["cli.import_s"] = import_seconds()
        tracer.write(work / "spans.jsonl")
    elif passes:
        values = end_to_end(w, lay, setup_times, passes, 1.0 - failed / attempted)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    seeds, _ = printed_counts(passes[0].cmds) if passes else ({}, {})
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, **{f"{k}_cmd_s": command_seconds(p, k)
                                          for k in (TRACK, FILTER, REPORT)}}
                   for p in passes],
        "failed_checks": checks.failed,
        "provenance": provenance(w, seed, input_sizes(w, lay, seeds) if passes else {}),
        "result": result,
    }
    for p in passes[1:]:
        shutil.rmtree(lay.pass_dir(p.index), ignore_errors=True)
    return record


def _ok(cmds: list[Cmd]) -> bool:
    return all(c.code == 0 for c in cmds)


def layer_counts(p: Pass) -> dict:
    """The per-layer metrics of a pass that are not times (they must repeat)."""
    return {k: v for k, v in layer_metrics(p.spans).items() if not k.endswith(("_s", "_ms"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=WORK / "results.jsonl")
    args = parser.parse_args(argv)

    if not (SRC / "muscletract" / "__init__.py").is_file():
        print(f"error: no muscletract sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One fresh process per workload: a command's ru_maxrss also counts the
        # benchmark process's own peak RSS at the time it starts the command, so
        # that peak must stay that of a process that has not run checks yet.
        for name in WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--out", str(args.out)]).returncode
            if code != 0:
                return code
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    name = args.workload
    record = run(name, args.seed, args.seconds, bool(args.trace),
                 WORK / f"{name}-seed{args.seed}-trace{args.trace}")
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for metric, v in record["result"]["metrics"].items():
        print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(record["result"]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
