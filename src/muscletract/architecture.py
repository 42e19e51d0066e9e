"""Per-muscle architectural parameters.

Muscle volume comes from the mask, fiber length from tract arc lengths, and
pennation angle from the tract chord against the muscle's line of action. The
line of action is a total-least-squares 3D line through all tract endpoints;
when its goodness of fit R^2 exceeds the threshold the endpoints are arranged
linearly and the muscle classifies as pennate, otherwise the mean tract
direction is used and the muscle classifies as non-pennate. PCSA is
MV * cos(PA) / FL with the median FL and PA.

The tracts reach these functions as a set or as an iterable of sets that
hold them in turn, such as formats.StreamlineFile.sets, and each set is read
one streamline.blocks range at a time. The `arch` command makes two passes
over its one open file: tract_ends gathers every tract's endpoints and arc
length, line_of_action fits the endpoints, and summarize's muscle_length
projects every point on that line. So beside one set it holds a few floats
per tract and the temporaries of one block, whatever the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, EmptyDomainError, InvalidSpecError
from .grid import VoxelMask
from .streamline import arc_lengths, as_stream, blocks

R2_THRESHOLD_DEFAULT = 0.9


@dataclass
class LineOfAction:
    direction: np.ndarray
    r2: float
    source: str  # endpoint_fit | mean_direction


@dataclass
class MuscleArchitecture:
    mv: float
    fl_median: float
    ml: float
    fl_ml_ratio: float
    pa_median: float
    pcsa: float
    loa: LineOfAction
    arch_type: str  # pennate | non_pennate


def muscle_volume(mask: VoxelMask) -> float:
    """Occupied-voxel count times voxel volume, in mm^3."""
    if mask.n_occupied == 0:
        raise EmptyDomainError("mask has no occupied voxels")
    return mask.n_occupied * mask.voxel_volume


def tract_ends(tracts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, last, lengths): the first and last point, (n, 3) float64
    each, and the arc length of every tract, in order, in one pass over a
    set or an iterable of sets."""
    first, last, lengths = [np.empty((0, 3))], [np.empty((0, 3))], [np.empty(0)]
    for sset in as_stream(tracts):
        a, b = sset.endpoints()
        first.append(a)
        last.append(b)
        lengths.append(arc_lengths(sset.points, sset.offsets))
    return np.concatenate(first), np.concatenate(last), np.concatenate(lengths)


def line_of_action(first: np.ndarray, last: np.ndarray,
                   r2_threshold: float = R2_THRESHOLD_DEFAULT) -> LineOfAction:
    """Fit the muscle's force axis from the first and last points of the
    tracts (tract_ends).

    Total least squares (perpendicular residuals) through all endpoints; R^2 is
    1 - (mean squared perpendicular distance / mean squared distance to the
    centroid). Above the threshold the fitted line is adopted; otherwise the
    direction falls back to the normalized mean of per-tract unit chords,
    sign-aligned to the first tract.
    """
    if not math.isfinite(r2_threshold):
        raise InvalidSpecError(f"r2_threshold must be finite, got {r2_threshold}")
    if len(first) < 3:
        raise DegenerateGeometryError("line of action needs at least 3 streamlines")
    pts = np.stack([first, last], axis=1).reshape(-1, 3)
    centered = pts - pts.mean(axis=0)
    total = float((centered * centered).sum() / len(pts))
    if total <= 0.0:
        raise DegenerateGeometryError("all tract endpoints coincide")

    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    direction = direction * np.sign(direction[np.argmax(np.abs(direction))])
    along = float(svals[0] ** 2 / len(pts))
    r2 = min(1.0, max(0.0, 1.0 - (total - along) / total))

    if r2 > r2_threshold:
        return LineOfAction(direction, r2, "endpoint_fit")

    chords = last - first
    norms = np.linalg.norm(chords, axis=1)
    if (norms == 0).any():
        raise DegenerateGeometryError("zero-length tract chord")
    chords /= norms[:, None]
    signs = np.where(chords @ chords[0] < 0, -1.0, 1.0)
    mean_dir = (chords * signs[:, None]).mean(axis=0)
    norm = np.linalg.norm(mean_dir)
    if norm == 0.0:
        raise DegenerateGeometryError("tract chords cancel; no mean direction")
    return LineOfAction(mean_dir / norm, r2, "mean_direction")


def _pennation_angles(chords: np.ndarray, direction: np.ndarray) -> list[float]:
    """Angle in [0, 90] degrees between each (n, 3) chord and a unit direction.

    Each stacked matmul is a dot product of one pair of 3-vectors, so the
    norms and cosines round exactly as for one chord at a time.
    """
    norms = np.sqrt((chords[:, None, :] @ chords[:, :, None])[:, 0, 0])
    if (norms == 0.0).any():
        raise DegenerateGeometryError("zero-length tract chord")
    cos = np.abs((chords[:, None, :] @ direction[:, None])[:, 0, 0] / norms)
    return [math.degrees(math.acos(min(1.0, c))) for c in cos.tolist()]


def muscle_length(tracts, loa: LineOfAction) -> float:
    """Extent of all tract points projected on the line of action, in mm,
    over a set or an iterable of sets.

    Points are projected one block at a time; each point's projection is the
    same matrix-vector product as for the whole buffer at once, bit for bit.
    """
    top, bottom, n = -math.inf, math.inf, 0
    for sset in as_stream(tracts):
        n += len(sset)
        for lo, hi in blocks(sset.offsets):
            proj = sset.block(lo, hi) @ loa.direction
            top, bottom = np.maximum(top, proj.max()), np.minimum(bottom, proj.min())
    if n == 0:
        raise EmptyDomainError("streamline set is empty")
    return float(top - bottom)


def _median(values) -> float:
    """float(np.median(values)) of a non-empty 1-D float64 array, bit for bit:
    the mean of the one or two middle values, or NaN where a value is NaN.
    np.median's NaN test imports numpy.ma (~14 ms) on its first call."""
    x = np.asarray(values, dtype=np.float64)
    if np.isnan(x).any():
        return math.nan
    half = len(x) // 2
    kth = [half] if len(x) % 2 else [half - 1, half]
    return float(np.partition(x, kth)[kth[0] : half + 1].mean())


def summarize(mask: VoxelMask, first: np.ndarray, last: np.ndarray, lengths: np.ndarray,
              tracts, loa: LineOfAction) -> MuscleArchitecture:
    """Assemble the per-muscle architecture record from the tracts'
    endpoints and arc lengths (tract_ends) and from their points, a set or
    an iterable of sets that muscle_length reads.

    FL and PA are summarized by their medians over tracts; FL/ML and PCSA are
    computed exactly from the stored fields (PCSA = MV * cos(PA) / FL).
    """
    if len(lengths) == 0:
        raise EmptyDomainError("streamline set is empty")
    mv = muscle_volume(mask)
    fl_median = _median(lengths)
    pa_median = _median(_pennation_angles(last - first, loa.direction))
    ml = muscle_length(tracts, loa)
    return MuscleArchitecture(
        mv=mv,
        fl_median=fl_median,
        ml=ml,
        fl_ml_ratio=fl_median / ml,
        pa_median=pa_median,
        pcsa=mv * math.cos(math.radians(pa_median)) / fl_median,
        loa=loa,
        arch_type="pennate" if loa.source == "endpoint_fit" else "non_pennate",
    )


@dataclass
class GroupFractions:
    """Per-group muscle-volume fractions and per-record PCSA fractions."""

    volume_fraction: dict[str, float]
    pcsa_fraction: list[float]


def group_fractions(records: list[tuple[str, MuscleArchitecture]]) -> GroupFractions:
    """Volume fraction of each functional group and PCSA fraction of each
    muscle within its group. Fractions sum to 1 per scope."""
    if not records:
        raise EmptyDomainError("no architecture records")
    total_mv = sum(arch.mv for _, arch in records)
    if total_mv <= 0:
        raise EmptyDomainError("total muscle volume is zero")

    group_mv: dict[str, float] = {}
    group_pcsa: dict[str, float] = {}
    for group, arch in records:
        group_mv[group] = group_mv.get(group, 0.0) + arch.mv
        group_pcsa[group] = group_pcsa.get(group, 0.0) + arch.pcsa

    volume_fraction = {g: mv / total_mv for g, mv in group_mv.items()}
    pcsa_fraction = [arch.pcsa / group_pcsa[group] for group, arch in records]
    return GroupFractions(volume_fraction, pcsa_fraction)
