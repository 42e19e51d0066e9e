"""Seed generation baselines (2DS, 3DS) and farthest streamline sampling.

FSS reduces a candidate streamline set to k streamlines by farthest-first
traversal under the MDF distance: each step selects the remaining streamline
whose minimum distance to the already-selected set is largest. Each remaining
streamline x caches that minimum, dmin[x], and the selected streamline that
attains it, owner(x).

The update after a new pick skips most candidates by the triangle inequality.
MDF is a metric on flip-equivalence classes: the direct distance D is a mean
of Euclidean point distances and is unchanged when both operands are flipped,
so D(a, sb) + D(b, tc) = D(a, sb) + D(sb, stc) >= D(a, stc) >= MDF(a, c) for
flips s, t. Hence MDF(new, x) >= MDF(new, owner(x)) - dmin[x], and a
candidate with MDF(new, owner(x)) >= 2 * dmin[x] cannot get closer to the
selected set. Each step computes MDF from the new pick to the selected
streamlines and evaluates it only for the candidates that fail this test.

Computed MDF values carry rounding error, so the test keeps a margin: x is
skipped only when MDF(new, owner(x)) > 2 * (1 + r) * dmin[x] + 1e-150 mm,
with r = 8 * (m + 8) * 2**-53. An m-point MDF evaluation is within about
(m + 4) * 2**-53 of its exact value, relative, and any r above twice that
suffices; the absolute term covers squared point differences that underflow.
A skipped candidate then has a computed MDF to the new pick no smaller than
its cached minimum, so the selected ids and selection distances are
bit-identical to those of an update that evaluates every candidate at every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, EmptyDomainError, InsufficientExtentError, InvalidSpecError
from .grid import VoxelMask
from .streamline import (
    DEFAULT_RESAMPLE_POINTS,
    StreamlineSet,
    arc_length,
    mdf_rows,
    stack_resampled,
)

# Absolute part of the pruning margin, in mm: covers the error of a squared
# point difference that underflows to a subnormal or zero.
_UNDERFLOW_MARGIN = 1e-150


@dataclass
class SeedSet:
    """Seed points in world mm, tagged with the strategy that produced them."""

    points: np.ndarray
    strategy: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.points = pts
        if self.strategy not in ("2ds", "3ds"):
            raise InvalidSpecError(f"unknown seeding strategy {self.strategy!r}")

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
    """Record of one traversal: ids in selection order, the min-distance at
    which each was picked (inf for the initial pick), and the number of MDF
    evaluations the traversal made."""

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
    return SeedSet(mask.voxel_centers(occ[keep]), "3ds")


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

    occupied_slices = np.unique(occ[:, axis])
    if len(occupied_slices) < n_slices:
        raise InsufficientExtentError(
            f"mask has {len(occupied_slices)} occupied slices, need {n_slices}"
        )
    first, last = int(occupied_slices[0]), int(occupied_slices[-1])
    if n_slices == 1:
        chosen = np.array([first])
    else:
        chosen = np.round(np.linspace(first, last, n_slices)).astype(int)

    picks = occ[np.isin(occ[:, axis], chosen)]
    return SeedSet(mask.voxel_centers(picks), "2ds")


def fss_filter(candidates: StreamlineSet, cfg: FSSConfig) -> tuple[StreamlineSet, FSSTrace]:
    """Filter candidates to cfg.k streamlines by farthest-first traversal.

    Deterministic: the first pick follows cfg.init_rule (longest arc length by
    default), every later step picks the remaining streamline maximizing its
    minimum MDF to the selected set, and ties break to the lowest id. Output
    order is selection order.

    Step t evaluates MDF from the new pick to the t selected streamlines and
    to the candidates that the triangle-inequality test of the module
    docstring cannot skip, instead of to all n candidates; the trace counts
    the evaluations made.
    """
    sls = sorted(candidates.streamlines, key=lambda s: s.id)
    n = len(sls)
    if n == 0:
        raise EmptyDomainError("candidate set is empty")
    if cfg.k > n:
        raise ArityError(f"k={cfg.k} exceeds candidate count {n}")

    coords = np.ascontiguousarray(stack_resampled(sls, cfg.m).transpose(2, 1, 0))

    if cfg.init_rule == "longest":
        lengths = np.array([arc_length(s) for s in sls])
        first = int(np.argmax(lengths))
    else:
        first = 0

    selected = np.empty(cfg.k, dtype=np.int64)
    distances = np.empty(cfg.k)
    selected[0] = first
    distances[0] = np.inf

    skip_factor = 2.0 * (1.0 + 8 * (cfg.m + 8) * 2.0**-53)
    picked = np.empty((3, cfg.m, cfg.k))
    picked[:, :, 0] = coords[:, :, first]
    owner = np.zeros(n, dtype=np.intp)
    dmin = mdf_rows(coords, coords[:, :, first].T)
    dmin[first] = -np.inf
    evaluations = n
    for step in range(1, cfg.k):
        j = int(np.argmax(dmin))
        selected[step] = j
        distances[step] = dmin[j]
        q = coords[:, :, j].T
        to_picked = mdf_rows(picked[:, :, :step], q)
        live = np.flatnonzero(to_picked[owner] <= dmin * skip_factor + _UNDERFLOW_MARGIN)
        upd = mdf_rows(coords[:, :, live], q)
        evaluations += step + len(live)
        closer = upd < dmin[live]
        dmin[live[closer]] = upd[closer]
        owner[live[closer]] = step
        dmin[j] = -np.inf
        picked[:, :, step] = coords[:, :, j]

    chosen = [sls[i] for i in selected]
    trace = FSSTrace(
        selected_ids=np.array([s.id for s in chosen], dtype=np.int64),
        selection_distance=distances,
        mdf_evaluations=evaluations,
    )
    return StreamlineSet(chosen, mask=candidates.mask), trace
