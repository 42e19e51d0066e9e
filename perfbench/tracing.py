"""Spans around the library calls of an in-process pass, and the per-layer
metrics derived from them.

Each traced function is replaced, for the duration of a pass, by a wrapper
that records a span (name, start, end, parent) and work counts taken from
the call's inputs and outputs. Replacement covers every name that refers to
the function inside the muscletract package, so calls made through
`from .x import f` bindings are traced too. A function that no longer exists
is skipped; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _track_counts(args, kwargs, result):
    mask, seeds = args[1], args[2]
    seeds_in = int(mask.points_in_mask(seeds.points).sum())
    return {"seeds_in": seeds_in, "tracks": len(result),
            "points": sum(len(s) for s in result), "short_dropped": seeds_in - len(result)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, function, counts derived from (args, kwargs, result))
TRACED = {
    "phantom.make_phantom": ("muscletract.phantom", "make_phantom", None),
    "tracking.reconstruct": ("muscletract.tracking", "reconstruct", None),
    "tracking.track": ("muscletract.tracking", "track", _track_counts),
    "tracking.fit_poly3": ("muscletract.tracking", "fit_poly3", None),
    "tracking.extrapolate_to_surface": (
        "muscletract.tracking", "extrapolate_to_surface",
        lambda a, kw, r: {"accepted": int(bool(r[1]))}),
    "sampling.fss_filter": (
        "muscletract.sampling", "fss_filter",
        lambda a, kw, r: {"n": len(a[0]), "k": int(a[1].k)}),
    "streamline.stack_resampled": (
        "muscletract.streamline", "stack_resampled",
        lambda a, kw, r: {"rows": len(a[0]), "points": sum(len(s) for s in a[0])}),
    "streamline.batch_mdf_to_one": (
        "muscletract.streamline", "batch_mdf_to_one",
        # The stack is read twice per row: once direct, once flipped.
        lambda a, kw, r: {"bytes": 2 * int(a[0].nbytes)}),
    "formats.load_streamlines": ("muscletract.formats", "load_streamlines", None),
    "formats.save_streamlines": ("muscletract.formats", "save_streamlines", _save_counts),
    "formats.load_field": ("muscletract.formats", "load_field", None),
    "metrics.density": ("muscletract.metrics", "density", None),
    "metrics.voxelize": ("muscletract.metrics", "voxelize", lambda a, kw, r: {"voxels": len(r)}),
    "architecture.line_of_action": ("muscletract.architecture", "line_of_action", None),
    "architecture.summarize": ("muscletract.architecture", "summarize", None),
}


class Tracer:
    """Spans kept in memory as [id, parent, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._warned: set[str] = set()

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter() - self._t0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter() - self._t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                try:
                    rec[5] = count(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    if name not in self._warned:
                        self._warned.add(name)
                        print(f"trace: no counts for {name}: {exc!r}", file=sys.stderr)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Swap every traced function for its wrapper; restore on exit."""
        swapped = []
        importlib.import_module("muscletract.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "muscletract" or n.startswith("muscletract."))]
        for name, (modname, fname, count) in TRACED.items():
            original = getattr(sys.modules.get(modname), fname, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(swapped):
                setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans: list[list]) -> tuple[dict, Counter, dict, dict]:
    """Per span name: summed self time, call count, summed counts, durations.

    A span's self time is its duration minus its direct children's, which
    never overlap because every span opens and closes on one thread.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[4] - rec[3]
    selft, calls = defaultdict(float), Counter()
    counts, durations = defaultdict(Counter), defaultdict(list)
    for rec in spans:
        name, dur = rec[2], rec[4] - rec[3]
        selft[name] += dur - child[rec[0]]
        calls[name] += 1
        durations[name].append(dur)
        if rec[5]:
            counts[name].update(rec[5])
    return selft, calls, counts, durations


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    selft, calls, counts, durations = self_times(spans)
    track = counts["tracking.track"]
    fss = counts["sampling.fss_filter"]
    extrap = calls["tracking.extrapolate_to_surface"]
    mdf_rows = durations["streamline.batch_mdf_to_one"]
    mdf_bytes = [rec[5]["bytes"] for rec in spans
                 if rec[2] == "streamline.batch_mdf_to_one" and rec[5]]
    fss_total = sum(durations["sampling.fss_filter"])
    cli = [n for n in calls if n.startswith("cli.")]
    return {
        "cli.self_s": sum(selft[n] for n in cli),
        "cli.invocations": sum(calls[n] for n in cli),
        "tracking.reconstruct_s": selft["tracking.reconstruct"],
        "tracking.track_s": selft["tracking.track"],
        "tracking.points": track["points"],
        "tracking.points_per_s": track["points"] / selft["tracking.track"]
        if selft["tracking.track"] else 0.0,
        "tracking.fit_poly3_s": selft["tracking.fit_poly3"],
        "tracking.extrapolate_s": selft["tracking.extrapolate_to_surface"],
        "tracking.fits": calls["tracking.fit_poly3"],
        "tracking.extrap_rejected": extrap - counts["tracking.extrapolate_to_surface"]["accepted"],
        "tracking.short_dropped": track["short_dropped"],
        "tracking.extrap_accept_ratio":
            counts["tracking.extrapolate_to_surface"]["accepted"] / extrap if extrap else 0.0,
        "sampling.fss_s": selft["sampling.fss_filter"],
        "sampling.fss_pick_ms": 1000.0 * fss_total / fss["k"] if fss["k"] else 0.0,
        "sampling.fss_n": fss["n"],
        "sampling.fss_k": fss["k"],
        "streamline.mdf_s": selft["streamline.batch_mdf_to_one"],
        "streamline.mdf_rows": calls["streamline.batch_mdf_to_one"],
        "streamline.mdf_row_ms": 1000.0 * statistics.median(mdf_rows) if mdf_rows else 0.0,
        "streamline.mdf_row_bytes": statistics.median_low(mdf_bytes) if mdf_bytes else 0,
        "streamline.stack_resampled_s": selft["streamline.stack_resampled"],
        "streamline.resampled_points": counts["streamline.stack_resampled"]["points"],
        "formats.load_streamlines_s": selft["formats.load_streamlines"],
        "formats.save_streamlines_s": selft["formats.save_streamlines"],
        "formats.load_field_s": selft["formats.load_field"],
        "formats.strl_bytes": counts["formats.save_streamlines"]["bytes"],
        "metrics.density_s": selft["metrics.density"],
        "metrics.voxelize_s": selft["metrics.voxelize"],
        "metrics.voxels_hit": counts["metrics.voxelize"]["voxels"],
        "architecture.line_of_action_s": selft["architecture.line_of_action"],
        "architecture.summarize_s": selft["architecture.summarize"],
    }
