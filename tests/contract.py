"""The output contract: a tiny pipeline of all seven commands and the digests
of what it writes.

run_pipeline runs phantom -> track -> filter (FSS with its trace, and the 3DS
baseline) -> metrics -> arch on two jittered arc phantoms, then compare and
fractions over the results, all in-process through cli.main. Every file it
writes is an artifact of the contract. tests/contract_digests.json holds the
SHA-256 of each artifact, the values of each CSV artifact, and the build they
were taken on: the numpy version and the BLAS that numpy was built against.
The cubic fit of the tracker calls LAPACK, so another build may round
differently; test_contract compares digests only on the recorded build.

A change that alters the output on purpose regenerates the digests with

    PYTHONPATH=src python tests/contract.py

and says in its CHANGES.md entry which artifacts changed and why.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).resolve().with_name("contract_digests.json")

INSTANCES = (0, 1)
METHODS = ("fss", "3ds")
K = 60
GROUPS = {"arc0_fss": "flexors", "arc0_3ds": "extensors"}


def commands(root: Path) -> list[list[str]]:
    """The pipeline's command lines, in order, writing under root."""
    cmds = []
    for i in INSTANCES:
        d = root / f"i{i}"
        mask, field, cand = d / "mask.mskv", d / "field.ornt", d / "cand.strl"
        cmds += [
            ["phantom", "--shape", "arc", "--arc-radius", "16", "--arc-sweep", "70",
             "--arc-thickness", "6", "--jitter", "3", "--seed", str(i),
             "--out-mask", mask, "--out-field", field, "--out-truth", d / "truth.txt"],
            ["track", "--field", field, "--mask", mask, "--target-candidates", "1100",
             "--min-length", "5", "--out", cand],
            ["filter", "--method", "fss", "--candidates", cand, "--mask", mask, "-k", str(K),
             "--trace", d / "fss" / "trace.csv", "--out", d / "fss" / "out.strl"],
            ["filter", "--method", "3ds", "--field", field, "--mask", mask, "-k", str(K),
             "--min-length", "5", "--out", d / "3ds" / "out.strl"],
        ]
        for method in METHODS:
            run = d / method
            density = ["--out-density", run / "density.dens"] + (["--normalized"] if i else [])
            cmds += [
                ["metrics", "--streamlines", run / "out.strl", "--mask", mask,
                 "--out-csv", run / "metrics.csv", *density],
                ["arch", "--streamlines", run / "out.strl", "--mask", mask,
                 "--name", f"arc{i}_{method}", "--out", run / "arch.csv"],
            ]
    cmds.append(["compare", *(f"{m}:{i}:{root / f'i{i}' / m}" for m in METHODS for i in INSTANCES),
                 "--out", root / "compare.csv"])
    cmds.append(["fractions", *(root / "i0" / m / "arch.csv" for m in METHODS),
                 "--groups", root / "groups.txt", "--out", root / "fractions.csv"])
    return [[str(a) for a in cmd] for cmd in cmds]


def run_pipeline(root: Path) -> dict[str, Path]:
    """Run every command of the pipeline under root; returns each artifact
    by its path relative to root. A command that exits non-zero raises."""
    from muscletract.cli import main

    for i in INSTANCES:
        for method in METHODS:
            (root / f"i{i}" / method).mkdir(parents=True)
    groups = root / "groups.txt"
    groups.write_text("".join(f"{name}={g}\n" for name, g in GROUPS.items()))
    for cmd in commands(root):
        code = main(cmd)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {code}")
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p != groups}


def build() -> dict[str, str]:
    """The build the digests depend on: numpy's version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": str(blas.get("openblas configuration", "")).strip(),
        "machine": platform.machine(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def record(artifacts: dict[str, Path]) -> dict:
    """The digest file's contents for a pipeline run on this build."""
    return {
        "build": build(),
        "sha256": {name: sha256(p) for name, p in artifacts.items()},
        "csv": {name: csv_lines(p) for name, p in artifacts.items() if name.endswith(".csv")},
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = record(run_pipeline(Path(tmp)))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests['sha256'])} digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
