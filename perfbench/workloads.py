"""Workload plans: the muscletract CLI commands each workload runs.

A plan is data only. The untraced run executes its commands as separate
processes and the traced run executes the same argument lists in-process,
so both measure one pipeline.

Every workload is a closed loop: one command at a time, each started after
the previous one ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Step kinds. "setup" writes the workload's inputs and is timed apart from the
# pass; the other three group a pass's commands by the wait a user sees.
SETUP, TRACK, FILTER, REPORT = "setup", "track", "filter", "report"

# Criterion-1 parameter ranges of the acceptance suite (ensemble phantoms).
BOX_RANGES = {"pennation": (24.0, 32.0), "dim_y": (34.0, 42.0), "dim_z": (12.0, 15.0),
              "jitter": (0.4, 1.2)}
ARC_RANGES = {"radius": (12.0, 16.0), "sweep": (85.0, 110.0), "thickness": (5.0, 7.0),
              "height": (26.0, 32.0), "jitter": (0.4, 1.2)}


@dataclass(frozen=True)
class Step:
    kind: str
    instance: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Instance:
    """One phantom and the commands run on it."""

    name: str
    phantom: tuple[str, ...]
    spacing: str
    target: str | None
    methods: tuple[str, ...]
    arch_candidates: bool


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    instances: tuple[Instance, ...]
    compare: bool
    setup_reps: int


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _at(ranges: dict, u: float) -> dict:
    return {key: lo + (hi - lo) * u for key, (lo, hi) in ranges.items()}


def _ensemble(seed: int, tiny: bool) -> tuple[Instance, ...]:
    """Two boxes and two arcs at the lower and upper quartiles of the
    criterion-1 ranges; the seed draws their jitter fields.

    Holding the geometry fixed keeps the amount of work, and the quality
    figures, from depending on the seed: drawing sizes from the full ranges
    moved the run time by a quarter from one seed to the next.
    """
    jitter_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=4)
    scale = 0.5 if tiny else 1.0
    spacing = "2" if tiny else "1"
    out = []
    for i in range(4):
        u = 0.25 if i < 2 else 0.75
        if i % 2 == 0:
            p = _at(BOX_RANGES, u)
            phantom = (
                "--shape", "box", "--pennation", _fmt(p["pennation"]),
                "--dims", f"10x{_fmt(p['dim_y'] * scale)}x{_fmt(p['dim_z'])}",
            )
        else:
            p = _at(ARC_RANGES, u)
            phantom = (
                "--shape", "arc", "--arc-radius", _fmt(p["radius"]),
                "--arc-sweep", _fmt(p["sweep"]), "--arc-thickness", _fmt(p["thickness"]),
                "--dims", f"20x{_fmt(p['height'] * scale)}x20",
            )
        phantom += ("--jitter", _fmt(p["jitter"]), "--seed", str(int(jitter_seeds[i])))
        out.append(Instance(f"i{i}", phantom, spacing, None, ("fss", "3ds", "2ds"), False))
    return tuple(out)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload's plan for a seed; tiny shrinks it for the self-test."""
    if name == "default_box":
        # The CLI-default phantom has no randomness, so the seed leaves it unchanged.
        phantom = ("--shape", "box") + (("--dims", "10x6x20") if tiny else ())
        inst = Instance("box", phantom, "1", "150" if tiny else "3000", ("fss",), True)
        return Workload(name, 40 if tiny else 1500, (inst,), False, 9)
    if name == "long_box":
        dims = "20x12x60" if tiny else "40x24x120"
        inst = Instance("box", ("--shape", "box", "--dims", dims), "2",
                        "100" if tiny else "2400", ("fss",), True)
        return Workload(name, 10 if tiny else 48, (inst,), False, 9)
    if name == "ensemble_mixed":
        return Workload(name, 30 if tiny else 400, _ensemble(seed, tiny), True, 3)
    raise KeyError(name)


WORKLOADS = ("default_box", "long_box", "ensemble_mixed")


@dataclass(frozen=True)
class Layout:
    """Where a workload's files live under its work directory."""

    root: Path

    def inputs(self, inst: Instance) -> Path:
        return self.root / "inputs" / inst.name

    def mask(self, inst: Instance) -> Path:
        return self.inputs(inst) / "mask.mskv"

    def field(self, inst: Instance) -> Path:
        return self.inputs(inst) / "field.ornt"

    def truth(self, inst: Instance) -> Path:
        return self.inputs(inst) / "truth.txt"

    def pass_dir(self, i: int) -> Path:
        return self.root / f"pass{i}"

    def run_dir(self, i: int, inst: Instance, method: str) -> Path:
        return self.pass_dir(i) / inst.name / method

    def candidates(self, i: int, inst: Instance) -> Path:
        return self.pass_dir(i) / inst.name / "cand.strl"

    def candidates_arch(self, i: int, inst: Instance) -> Path:
        return self.pass_dir(i) / inst.name / "cand_arch.csv"

    def compare_csv(self, i: int) -> Path:
        return self.pass_dir(i) / "compare.csv"


def setup_steps(w: Workload, lay: Layout) -> list[Step]:
    return [
        Step(SETUP, inst.name, ("phantom", *inst.phantom, "--out-mask", str(lay.mask(inst)),
                                "--out-field", str(lay.field(inst)),
                                "--out-truth", str(lay.truth(inst))))
        for inst in w.instances
    ]


def pass_steps(w: Workload, lay: Layout, i: int) -> list[Step]:
    """Every command of one pass, in the order they run."""
    steps: list[Step] = []
    for inst in w.instances:
        mask, field, cand = str(lay.mask(inst)), str(lay.field(inst)), str(lay.candidates(i, inst))
        target = ("--target-candidates", inst.target) if inst.target else ()
        steps.append(Step(TRACK, inst.name, (
            "track", "--field", field, "--mask", mask, "--strategy", "3ds",
            "--spacing", inst.spacing, *target, "--out", cand)))
        for method in inst.methods:
            d = lay.run_dir(i, inst, method)
            argv = ["filter", "--method", method, "-k", str(w.k), "--mask", mask]
            if method == "fss":
                argv += ["--candidates", cand, "--m", "12", "--trace", str(d / "trace.csv")]
            else:
                argv += ["--field", field, "--spacing", inst.spacing]
            steps.append(Step(FILTER, inst.name, (*argv, "--out", str(d / "out.strl"))))
        for method in inst.methods:
            d = lay.run_dir(i, inst, method)
            out = str(d / "out.strl")
            steps.append(Step(REPORT, inst.name, (
                "metrics", "--streamlines", out, "--mask", mask, "--out-csv",
                str(d / "metrics.csv"), "--out-density", str(d / "density.dens"))))
            steps.append(Step(REPORT, inst.name, (
                "arch", "--streamlines", out, "--mask", mask, "--name", f"{inst.name}_{method}",
                "--out", str(d / "arch.csv"))))
        if inst.arch_candidates:
            steps.append(Step(REPORT, inst.name, (
                "arch", "--streamlines", cand, "--mask", mask, "--name", f"{inst.name}_candidates",
                "--out", str(lay.candidates_arch(i, inst)))))
    if w.compare:
        specs = [f"{m}:{j}:{lay.run_dir(i, inst, m)}"
                 for j, inst in enumerate(w.instances) for m in inst.methods]
        steps.append(Step(REPORT, "", ("compare", *specs, "--out", str(lay.compare_csv(i)))))
    return steps


def make_dirs(w: Workload, lay: Layout, i: int) -> None:
    for inst in w.instances:
        for method in inst.methods:
            lay.run_dir(i, inst, method).mkdir(parents=True, exist_ok=True)
