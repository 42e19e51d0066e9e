"""One-streamline-at-a-time reference for muscletract.streamline and the
voxelization in muscletract.metrics.

These are arc length, resampling, MDF, flipping and voxelization written for
a single streamline or pair, each given as an (n, 3) point array (as
iterating over a StreamlineSet yields them). The library runs each over a
whole packed set at once; tests require its output to equal this reference
bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from muscletract.errors import ArityError, InvalidStreamlineError
from muscletract.streamline import DEFAULT_RESAMPLE_POINTS, StreamlineSet


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidStreamlineError(f"expected (n, 3) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidStreamlineError("streamline contains non-finite coordinates")
    return pts


def pack(arrays) -> StreamlineSet:
    """A validated set of the given (n, 3) point arrays, in order."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    points = np.concatenate(arrays) if arrays else np.empty((0, 3))
    return StreamlineSet(points, [len(a) for a in arrays])


def arc_length(points) -> float:
    """Sum of the distances between consecutive points of one polyline."""
    pts = _as_points(points)
    if len(pts) < 2:
        raise InvalidStreamlineError("arc length needs at least two points")
    seg = pts[1:] - pts[:-1]
    return float(np.sqrt((seg * seg).sum(axis=1)).sum())


@dataclass(frozen=True)
class ResampledStreamline:
    """Fixed-count equal-arc-spacing representation used by MDF."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if len(pts) < 2:
            raise InvalidStreamlineError("resampled streamline needs at least two points")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def resample_points(points: np.ndarray, m: int) -> np.ndarray:
    """Place m points at equal arc-length spacing along one polyline."""
    if m < 2:
        raise ArityError(f"resample needs m >= 2, got {m}")
    pts = _as_points(points)
    seg = np.diff(pts, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0.0:
        raise InvalidStreamlineError("cannot resample a zero-length streamline")

    targets = np.linspace(0.0, total, m)
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg_len) - 1)
    denom = np.where(seg_len[idx] > 0.0, seg_len[idx], 1.0)
    frac = (targets - cum[idx]) / denom
    out = pts[idx] + frac[:, None] * seg[idx]
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def resample(points, m: int = DEFAULT_RESAMPLE_POINTS) -> ResampledStreamline:
    return ResampledStreamline(resample_points(points, m))


def flip(r: ResampledStreamline) -> ResampledStreamline:
    """Reverse point order; flip(flip(r)) == r."""
    return ResampledStreamline(r.points[::-1].copy())


def _palindromic_mean(d: np.ndarray) -> float:
    m = len(d)
    half = m // 2
    total = np.add(d[:half], d[::-1][:half]).sum()
    if m % 2:
        total = total + d[half]
    return total / m


def _paired_mean_distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(_palindromic_mean(np.sqrt(((p - q) ** 2).sum(axis=1))))


def mdf(a: ResampledStreamline, b: ResampledStreamline) -> float:
    """Minimum average direct-flip distance between two resampled streamlines."""
    pa, pb = a.points, b.points
    if len(pa) != len(pb):
        raise ArityError(f"MDF needs equal point counts, got {len(pa)} and {len(pb)}")
    return min(_paired_mean_distance(pa, pb), _paired_mean_distance(pa, pb[::-1]))


# A segment in a voxel-face plane meets that plane at t = 0/0, which gives NaN
# samples; its vertices and other crossings cover it.
@np.errstate(invalid="ignore")
def crossing_samples(points: np.ndarray, voxel_size, origin) -> np.ndarray:
    """The vertices plus sample points just before and after every
    voxel-face crossing of one polyline, each sampled from the nearer end of
    its segment."""
    p0, p1 = points[:-1], points[1:]
    seg = np.diff(points, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    chunks = []
    for a in range(3):
        c0 = (p0[:, a] - origin[a]) / voxel_size[a]
        c1 = (p1[:, a] - origin[a]) / voxel_size[a]
        lo, hi = np.minimum(c0, c1), np.maximum(c0, c1)
        first, last = np.ceil(lo), np.floor(hi)
        counts = np.maximum(0, last - first + 1).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            continue
        seg_idx = np.repeat(np.arange(len(p0)), counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        planes = np.repeat(first, counts) + within
        t0 = (planes - c0[seg_idx]) / (c1 - c0)[seg_idx]
        t1 = (planes - c1[seg_idx]) / (c0 - c1)[seg_idx]
        far = np.abs(planes - c1[seg_idx]) < np.abs(planes - c0[seg_idx])
        dt = 1e-7 / np.maximum(seg_len[seg_idx], 1e-12)
        for sign in (-1.0, 1.0):
            from0 = p0[seg_idx] + np.clip(t0 + sign * dt, 0.0, 1.0)[:, None] * seg[seg_idx]
            from1 = p1[seg_idx] - np.clip(t1 + sign * dt, 0.0, 1.0)[:, None] * seg[seg_idx]
            chunks.append(np.where(far[:, None], from1, from0))
    return np.concatenate([points] + chunks)


def voxelize(points: np.ndarray, mask) -> np.ndarray:
    """In-mask voxel indices one polyline passes through, each once, sorted."""
    samples = crossing_samples(points, mask.voxel_size, mask.origin)
    # A NaN sample falls in no voxel; drop it before the integer cast.
    idx = mask.world_to_index(samples[np.isfinite(samples).all(axis=1)])
    idx = idx[mask.indices_occupied(idx)]
    if len(idx) == 0:
        return np.empty((0, 3), dtype=np.int64)
    return np.unique(idx, axis=0)


def density_counts(streamlines, mask) -> np.ndarray:
    """Distinct-streamline count of every voxel, one streamline at a time."""
    counts = np.zeros(mask.dims, dtype=np.int64)
    for points in streamlines:
        idx = voxelize(points, mask)
        counts[idx[:, 0], idx[:, 1], idx[:, 2]] += 1
    return counts
