"""Output checks and quality figures read from a finished pass.

The checks re-derive what they can without the library: STRL files are
parsed here, and FSS selection distances are recomputed with this file's own
resampling and direct/flipped mean, not with batch_mdf_to_one. Only the
SC check calls the library, because its contract is that the SC column of
metrics.csv equals coverage() on the same file.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Layout, Workload

MDF_SAMPLE_STEPS = 16
REL_TOL = 1e-9


@dataclass
class Checks:
    """Named pass/fail results; every failure is also reported on stderr."""

    results: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def read_strl(path: Path) -> list[np.ndarray]:
    """Streamlines of an STRL file as float64 (n, 3) arrays, in file order."""
    data = path.read_bytes()
    magic, _version, count = data[:4], *struct.unpack_from("<II", data, 4)
    if magic != b"STRL":
        raise ValueError(f"{path}: not an STRL file")
    out, pos = [], 12
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        out.append(np.frombuffer(data, "<f4", n * 3, pos).reshape(n, 3).astype(np.float64))
        pos += n * 12
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def strl_count(path: Path) -> int:
    with open(path, "rb") as fh:
        head = fh.read(12)
    return struct.unpack_from("<I", head, 8)[0]


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_truth(path: Path) -> dict[str, str]:
    pairs = (ln.split("=", 1) for ln in path.read_text(encoding="utf-8").splitlines() if "=" in ln)
    return {k: v for k, v in pairs}


def _resample(points: np.ndarray, m: int) -> np.ndarray:
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    t = np.linspace(0.0, arc[-1], m)
    return np.stack([np.interp(t, arc, points[:, c]) for c in range(3)], axis=1)


def _mdf_to_many(q: np.ndarray, many: np.ndarray) -> np.ndarray:
    direct = np.linalg.norm(many - q, axis=2).mean(axis=1)
    flipped = np.linalg.norm(many - q[::-1], axis=2).mean(axis=1)
    return np.minimum(direct, flipped)


def _within_csv_rounding(text: str, exact: float) -> bool:
    """True when a %.9g CSV cell agrees with `exact` to REL_TOL relative,
    allowing for the cell's own rounding to 9 significant digits."""
    lo = float(f"{exact * (1.0 - REL_TOL):.9g}")
    hi = float(f"{exact * (1.0 + REL_TOL):.9g}")
    return lo <= float(text) <= hi


def check_fss_trace(checks: Checks, tag: str, trace_csv: Path, n: int, k: int,
                    candidates: list[np.ndarray] | None, m: int = 12) -> None:
    """Ids unique and in range, distances non-increasing; with candidates,
    also recompute the distance at a fixed sample of steps."""
    rows = read_csv(trace_csv)
    ids = [int(r["id"]) for r in rows]
    dist = [float(r["selection_distance_mm"]) for r in rows]
    checks.check(f"{tag}:trace_length", len(rows) == k, f"{len(rows)} rows, k={k}")
    checks.check(f"{tag}:trace_ids_unique", len(set(ids)) == len(ids))
    checks.check(f"{tag}:trace_ids_in_range", all(0 <= i < n for i in ids), f"n={n}")
    checks.check(f"{tag}:trace_first_inf", bool(dist) and math.isinf(dist[0]))
    checks.check(f"{tag}:trace_non_increasing",
                 all(b <= a for a, b in zip(dist[1:], dist[2:])))
    if candidates is None or len(ids) != k or not all(0 <= i < n for i in ids):
        return
    sel = np.stack([_resample(candidates[i], m) for i in ids])
    steps = sorted({int(s) for s in np.linspace(1, k - 1, MDF_SAMPLE_STEPS)}) if k > 1 else []
    bad = [s for s in steps
           if not _within_csv_rounding(rows[s]["selection_distance_mm"],
                                       float(_mdf_to_many(sel[s], sel[:s]).min()))]
    checks.check(f"{tag}:trace_distance_is_min_mdf", not bad, f"steps {bad}")


def check_coverage(checks: Checks, tag: str, strl: Path, mask: Path, metrics_csv: Path) -> None:
    import muscletract as mt
    from muscletract.formats import load_mask, load_streamlines

    sc_text = read_csv(metrics_csv)[0]["sc"]
    sc = mt.coverage(load_streamlines(strl), load_mask(mask))
    checks.check(f"{tag}:sc_equals_coverage", f"{sc:.9g}" == sc_text, f"{sc!r} vs {sc_text}")


def pass_outputs(w: Workload, lay: Layout, i: int) -> list[Path]:
    """Every file a pass must write."""
    out = []
    for inst in w.instances:
        out.append(lay.candidates(i, inst))
        for method in inst.methods:
            d = lay.run_dir(i, inst, method)
            out += [d / "out.strl", d / "metrics.csv", d / "density.dens", d / "arch.csv"]
            if method == "fss":
                out.append(d / "trace.csv")
        if inst.arch_candidates:
            out.append(lay.candidates_arch(i, inst))
    if w.compare:
        out.append(lay.compare_csv(i))
    return out


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def check_pass(checks: Checks, w: Workload, lay: Layout, i: int, printed: dict[str, int],
               deep: bool) -> None:
    """Checks on pass i. printed maps an instance to the streamline count its
    track command printed; deep adds the MDF and coverage recomputations."""
    tag = f"pass{i}"
    outputs = pass_outputs(w, lay, i)
    missing = [str(p) for p in outputs if not p.is_file()]
    if not checks.check(f"{tag}:artifacts", not missing, f"missing {missing}"):
        return
    for inst in w.instances:
        t = f"{tag}:{inst.name}"
        cand = lay.candidates(i, inst)
        n = strl_count(cand)
        checks.check(f"{t}:candidate_count", n == printed.get(inst.name), f"{n} vs printed")
        for method in inst.methods:
            d = lay.run_dir(i, inst, method)
            got = strl_count(d / "out.strl")
            checks.check(f"{t}:{method}:output_count", got == w.k, f"{got} vs k={w.k}")
        candidates = read_strl(cand) if deep else None
        check_fss_trace(checks, f"{t}:fss", lay.run_dir(i, inst, "fss") / "trace.csv",
                        n, w.k, candidates)
        if deep and inst.arch_candidates:
            fl = read_csv(lay.candidates_arch(i, inst))[0]["fl_median_mm"]
            ok = _within_csv_rounding(fl, median_length(candidates))
            checks.check(f"{t}:candidates_fl_median", ok, fl)
        if deep:
            for method in inst.methods:
                d = lay.run_dir(i, inst, method)
                check_coverage(checks, f"{t}:{method}", d / "out.strl", lay.mask(inst),
                               d / "metrics.csv")
    if w.compare:
        rows = read_csv(lay.compare_csv(i))
        runs = sum(r["row"] == "run" for r in rows)
        expected = sum(len(inst.methods) for inst in w.instances)
        checks.check(f"{tag}:compare_rows", runs == expected, f"{runs} vs {expected}")


def check_repeat(checks: Checks, w: Workload, lay: Layout, i: int, first: list[str]) -> None:
    """Pass i wrote byte-identical files to pass 0."""
    paths = pass_outputs(w, lay, i)
    if all(p.is_file() for p in paths):
        same = digest(paths) == first
        checks.check(f"pass{i}:outputs_repeat", same, "outputs differ from pass 0")


@dataclass
class Quality:
    fss_sc: float
    fss_sdcv: float
    fl_err_pct: float
    ordering_ratio: float


def median_length(tracks: list[np.ndarray]) -> float:
    return float(np.median([np.linalg.norm(np.diff(t, axis=0), axis=1).sum() for t in tracks]))


def quality(w: Workload, lay: Layout, i: int) -> Quality:
    """SC/SDCV of the FSS output and FL error, as means over instances.

    FL error compares the median length of all 3DS candidates with the
    phantom's analytic fiber length. ordering_ratio is the share of
    instances whose SC does not rise and SDCV does not fall along fss, 3ds,
    2ds over the methods run; with FSS alone the chain holds by definition.
    """
    sc, sdcv, err, ordered = [], [], [], []
    for inst in w.instances:
        per = {m: read_csv(lay.run_dir(i, inst, m) / "metrics.csv")[0] for m in inst.methods}
        chain_sc = [float(per[m]["sc"]) for m in inst.methods]
        chain_cv = [float(per[m]["sdcv"]) for m in inst.methods]
        sc.append(chain_sc[0])
        sdcv.append(chain_cv[0])
        ordered.append(all(a >= b for a, b in zip(chain_sc, chain_sc[1:]))
                       and all(a <= b for a, b in zip(chain_cv, chain_cv[1:])))
        fl = median_length(read_strl(lay.candidates(i, inst)))
        truth = float(read_truth(lay.truth(inst))["fiber_length_mm"])
        err.append(abs(fl - truth) / truth * 100.0)
    return Quality(float(np.mean(sc)), float(np.mean(sdcv)), float(np.mean(err)),
                   float(np.mean(ordered)))


def input_sizes(w: Workload, lay: Layout, printed_seeds: dict[str, int]) -> dict:
    """Seeds, candidates, candidate points and STRL bytes of pass 0, per instance."""
    out = {}
    for inst in w.instances:
        cand = lay.candidates(0, inst)
        if not cand.is_file():
            continue
        tracks = read_strl(cand)
        out[inst.name] = {
            "phantom": " ".join(inst.phantom),
            "seeds": printed_seeds.get(inst.name),
            "candidates": len(tracks),
            "points": int(sum(len(t) for t in tracks)),
            "strl_bytes": cand.stat().st_size,
        }
    return out
