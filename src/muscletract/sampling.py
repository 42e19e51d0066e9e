"""Seed generation baselines (2DS, 3DS) and farthest streamline sampling.

FSS reduces a candidate streamline set to k streamlines by farthest-first
traversal under the MDF distance: each step selects the remaining streamline
whose minimum distance to the already-selected set is largest. Each remaining
streamline x caches that minimum, dmin[x].

The update after a new pick skips most candidates by a centroid bound (the
bound-based pruning of Elkan, ICML 2003, applied to farthest-first
traversal). For two resampled streamlines a and b of m points,

    MDF(a, b) >= |mean(a) - mean(b)|,

because the direct distance is a mean of norms, (1/m) sum |a_i - b_i|, which
is at least the norm of the mean, |(1/m) sum (a_i - b_i)|; the flipped
distance pairs a with b reversed, which has the same mean. So a candidate
whose centroid lies farther than dmin[x] from the new pick's cannot get
closer to the selected set. Each step computes one centroid distance per
candidate and evaluates MDF only where the test below cannot skip it.

Computed values carry rounding error, so x is skipped only when its computed
centroid distance exceeds dmin[x] + delta, with
delta = 16 * (m + 8) * 2**-53 * M + 1e-150 mm and M the largest coordinate
magnitude of the resampled candidates. A computed centroid is within
m * 2**-53 * M of its exact value, so a centroid distance is within about
3.5 * (m + 5) * 2**-53 * M; an m-point MDF evaluation is within
(m + 8) * 2**-53 of its exact value, relative, and no MDF exceeds
2 * sqrt(3) * M, so it is within 3.5 * (m + 8) * 2**-53 * M absolute. delta
covers both, scaling with the coordinates as their rounding does; its
absolute part covers squared point differences that underflow. A skipped
candidate then has a computed MDF to the new pick no smaller than its cached
minimum, so the selected positions and selection distances are bit-identical
to those of an update that evaluates every candidate at every step.

The first pick under init_rule "longest" reuses the resampler's segment-length
totals. A total sums the same c - 1 segment lengths as the arc length
(streamline.arc_lengths), in sequence instead of pairwise; both sums are
within (c - 2) * 2**-53 of the exact sum, relative, so they differ by less
than 2 * (c + 8) * 2**-53 times the total. So only a candidate whose total
lies within twice that margin (taken at the largest point count) below the
largest total can be the longest, and the arc length is computed for those
candidates alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, EmptyDomainError, InsufficientExtentError, InvalidSpecError
from .grid import VoxelMask
from .streamline import (DEFAULT_RESAMPLE_POINTS, StreamlineSet, _distinct, _lengths, _resample_set,
                         mdf_rows)

log = logging.getLogger(__name__)

# Absolute part of the pruning margin, in mm: covers the error of a squared
# point difference that underflows to a subnormal or zero.
_UNDERFLOW_MARGIN = 1e-150


@dataclass
class SeedSet:
    """Seed points in world mm, as an (n, 3) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(self.points).all():
            raise InvalidSpecError("seed points must be finite")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class FSSConfig:
    """Output count k, resample count m, and the init rule. fss_filter checks
    k against the candidate count it is given."""

    k: int = 3000
    m: int = DEFAULT_RESAMPLE_POINTS
    init_rule: str = "longest"

    def __post_init__(self):
        if not self.k >= 1:
            raise InvalidSpecError(f"need k >= 1, got k={self.k}")
        if not self.m >= 2:
            raise InvalidSpecError(f"need m >= 2, got {self.m}")
        if self.init_rule not in ("longest", "index"):
            raise InvalidSpecError(f"init_rule must be 'longest' or 'index', got {self.init_rule!r}")


@dataclass
class FSSTrace:
    """Record of one traversal: the positions of the picked candidates in
    selection order, the min-distance at which each was picked (inf for the
    initial pick), and the number of MDF evaluations the traversal made."""

    selected_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    selection_distance: np.ndarray = field(default_factory=lambda: np.empty(0))
    mdf_evaluations: int = 0


def seeds_3d(mask: VoxelMask, spacing_mm: float) -> SeedSet:
    """Uniform volume seeding: voxel centers on a stride lattice.

    The stride per axis is round(spacing / voxel_size), at least 1, and the
    lattice is anchored at the occupied bounding-box minimum so an isolated
    in-mask voxel always contributes its center.
    """
    if not 0 < spacing_mm < math.inf:
        raise InvalidSpecError(f"spacing must be positive and finite, got {spacing_mm}")
    occ = mask.occupied_indices()
    if len(occ) == 0:
        raise EmptyDomainError("mask has no occupied voxels")
    stride = np.maximum(1, np.round(spacing_mm / mask.voxel_size).astype(int))
    lo = occ.min(axis=0)
    keep = (((occ - lo) % stride) == 0).all(axis=1)
    return SeedSet(mask.voxel_centers(occ[keep]))


def seeds_2d(mask: VoxelMask, n_slices: int = 5) -> SeedSet:
    """Slice-based seeding: n_slices evenly spaced along the longitudinal axis,
    one seed per in-mask voxel center within each chosen slice.

    Slice indices are round(first + (last - first) * i / (n_slices - 1)) over
    the occupied range; the longitudinal axis is the one with the largest
    occupied extent (ties prefer z).
    """
    if n_slices < 1:
        raise InvalidSpecError("n_slices must be >= 1")
    occ = mask.occupied_indices()
    if len(occ) == 0:
        raise EmptyDomainError("mask has no occupied voxels")

    extents = occ.max(axis=0) - occ.min(axis=0) + 1
    axis = 2 - int(np.argmax(extents[::-1]))

    occupied_slices = _distinct(occ[:, axis])
    if len(occupied_slices) < n_slices:
        raise InsufficientExtentError(
            f"mask has {len(occupied_slices)} occupied slices, need {n_slices}"
        )
    first, last = int(occupied_slices[0]), int(occupied_slices[-1])
    chosen = np.round(np.linspace(first, last, n_slices)).astype(int)

    picks = occ[np.isin(occ[:, axis], chosen)]
    return SeedSet(mask.voxel_centers(picks))


def fss_filter(candidates: StreamlineSet, cfg: FSSConfig) -> tuple[StreamlineSet, FSSTrace]:
    """The cfg.k streamlines that fss_select picks, copied into a set of their
    own in selection order, and its trace."""
    trace = fss_select(candidates, cfg)
    return candidates.take(trace.selected_ids), trace


def fss_select(candidates: StreamlineSet, cfg: FSSConfig) -> FSSTrace:
    """Pick cfg.k of the candidates by farthest-first traversal; returns the
    trace, whose selected_ids are the positions of the picks.

    Deterministic: the first pick follows cfg.init_rule (longest arc length by
    default), every later step picks the remaining streamline maximizing its
    minimum MDF to the selected set, and ties break to the lowest position in
    the candidate set. The picks are in selection order.

    Each step evaluates MDF from the new pick only to the candidates that the
    centroid bound of the module docstring cannot skip, instead of to all n
    candidates; the trace counts the evaluations made, and one INFO line
    reports them against n * k.
    """
    n = len(candidates)
    if n == 0:
        raise EmptyDomainError("candidate set is empty")
    if cfg.k > n:
        raise ArityError(f"k={cfg.k} exceeds candidate count {n}")

    stack, totals = _resample_set(candidates, cfg.m)
    coords = np.ascontiguousarray(stack.transpose(2, 1, 0))
    del stack
    first = _longest(candidates, totals) if cfg.init_rule == "longest" else 0

    selected = np.empty(cfg.k, dtype=np.int64)
    distances = np.empty(cfg.k)
    selected[0] = first
    distances[0] = np.inf

    slack = 16 * (cfg.m + 8) * 2.0**-53 * float(np.abs(coords).max()) + _UNDERFLOW_MARGIN
    centroids = coords.mean(axis=1)
    dmin = mdf_rows(coords, coords[:, :, first].T)
    dmin[first] = -np.inf
    evaluations = n
    for step in range(1, cfg.k):
        j = int(np.argmax(dmin))
        selected[step] = j
        distances[step] = dmin[j]
        dmin[j] = -np.inf
        gap = centroids - centroids[:, j, None]
        gap *= gap
        live = np.flatnonzero(np.sqrt(gap[0] + gap[1] + gap[2]) <= dmin + slack)
        upd = mdf_rows(coords[:, :, live], coords[:, :, j].T)
        evaluations += len(live)
        dmin[live] = np.minimum(dmin[live], upd)

    log.info(
        "fss_select: %d candidates, k=%d; %d MDF evaluations (%.2f%% of n*k)",
        n, cfg.k, evaluations, 100.0 * evaluations / (n * cfg.k),
    )
    return FSSTrace(selected, distances, evaluations)


def _longest(candidates: StreamlineSet, estimates: np.ndarray) -> int:
    """Position of the candidate of largest arc length, the lowest among
    equals.

    estimates are the resampler's sequential sums of the segment lengths; the
    arc length is computed only for the candidates whose estimate lies within
    the margin of the module docstring of the largest.
    """
    top = float(estimates.max())
    margin = 4 * (int(candidates.counts.max()) + 8) * 2.0**-53 * top
    near = np.flatnonzero(estimates >= top - margin)
    exact = _lengths(candidates.points, candidates.offsets[near], candidates.counts[near])
    return int(near[np.argmax(exact)])
