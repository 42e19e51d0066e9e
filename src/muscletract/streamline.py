"""Polyline geometry for fiber tracts.

A streamline is an ordered 3D polyline in world millimeters. This module
provides arc length, fixed-count resampling, orientation flipping, and the
minimum average direct-flip (MDF) distance between equal-length resampled
streamlines, which is the distance index the farthest-first filter runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, InvalidStreamlineError

DEFAULT_RESAMPLE_POINTS = 12


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidStreamlineError(f"expected (n, 3) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidStreamlineError("streamline contains non-finite coordinates")
    return pts


def polyline_length(points: np.ndarray) -> float:
    """Total chord length of an (n, 3) point array."""
    seg = points[1:] - points[:-1]
    return float(np.sqrt((seg * seg).sum(axis=1)).sum())


@dataclass(frozen=True)
class Streamline:
    """Ordered polyline (>= 2 points, positive length) with a stable id."""

    points: np.ndarray
    id: int = -1

    def __post_init__(self):
        pts = _as_points(self.points)
        if len(pts) < 2:
            raise InvalidStreamlineError("streamline needs at least two points")
        if polyline_length(pts) <= 0.0:
            raise InvalidStreamlineError("streamline has zero arc length")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ResampledStreamline:
    """Fixed-count equal-arc-spacing representation used by MDF and FSS."""

    points: np.ndarray
    source_id: int = -1

    def __post_init__(self):
        pts = _as_points(self.points)
        if len(pts) < 2:
            raise InvalidStreamlineError("resampled streamline needs at least two points")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class StreamlineSet:
    """A list of streamlines sharing one coordinate frame (optional mask ref)."""

    streamlines: list[Streamline] = field(default_factory=list)
    mask: object | None = None

    def __post_init__(self):
        ids = [s.id for s in self.streamlines]
        if len(set(ids)) != len(ids):
            raise InvalidStreamlineError("streamline ids within a set must be unique")

    def __len__(self) -> int:
        return len(self.streamlines)

    def __iter__(self):
        return iter(self.streamlines)

    @classmethod
    def from_arrays(cls, arrays, mask=None) -> "StreamlineSet":
        return cls([Streamline(a, id=i) for i, a in enumerate(arrays)], mask=mask)


def arc_length(s: Streamline | np.ndarray) -> float:
    """Sum of distances between consecutive points, in millimeters."""
    pts = s.points if isinstance(s, (Streamline, ResampledStreamline)) else _as_points(s)
    if len(pts) < 2:
        raise InvalidStreamlineError("arc length needs at least two points")
    return polyline_length(pts)


def resample_points(points: np.ndarray, m: int) -> np.ndarray:
    """Place m points at equal arc-length spacing along a polyline.

    Parameterizes by cumulative chord length; the two endpoints are copied
    exactly from the input.
    """
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


def resample(s: Streamline, m: int = DEFAULT_RESAMPLE_POINTS) -> ResampledStreamline:
    """Uniformly resample a streamline to m points (default 12)."""
    return ResampledStreamline(resample_points(s.points, m), source_id=s.id)


def flip(r: ResampledStreamline) -> ResampledStreamline:
    """Reverse point order; flip(flip(r)) == r."""
    return ResampledStreamline(r.points[::-1].copy(), source_id=r.source_id)


def _palindromic_mean(d: np.ndarray) -> np.ndarray | float:
    # Sums per-point distances by palindromic index pairs so the result is
    # bit-identical under argument swap and under flipping both operands.
    # The pair sums are laid out C-contiguous whatever the layout of d, so
    # every row is reduced by the same contiguous summation as a 1-D input.
    m = d.shape[-1]
    half = m // 2
    total = np.add(d[..., :half], d[..., ::-1][..., :half], order="C").sum(axis=-1)
    if m % 2:
        total = total + d[..., half]
    return total / m


def _paired_mean_distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(_palindromic_mean(np.sqrt(((p - q) ** 2).sum(axis=1))))


def mdf(a: ResampledStreamline, b: ResampledStreamline) -> float:
    """Minimum average direct-flip distance between two resampled streamlines.

    min(d_direct, d_flipped) where d_direct is the mean pointwise Euclidean
    distance and d_flipped pairs one operand with the other reversed.
    Symmetric in its arguments at the bit level.
    """
    pa, pb = a.points, b.points
    if len(pa) != len(pb):
        raise ArityError(f"MDF needs equal point counts, got {len(pa)} and {len(pb)}")
    direct = _paired_mean_distance(pa, pb)
    flipped = _paired_mean_distance(pa, pb[::-1])
    return min(direct, flipped)


def _mean_distances(coords: np.ndarray, q: np.ndarray) -> np.ndarray:
    dx = coords[0] - q[:, 0, None]
    dy = coords[1] - q[:, 1, None]
    dz = coords[2] - q[:, 2, None]
    return _palindromic_mean(np.sqrt(dx * dx + dy * dy + dz * dz).T)


def mdf_rows(coords: np.ndarray, q: np.ndarray) -> np.ndarray:
    """MDF from every streamline of a (3, m, n) coordinate stack to one (m, 3)
    streamline.

    The stack is structure-of-arrays: coords[c, i, s] is coordinate c of point
    i of streamline s, so each arithmetic pass runs over n contiguous values.
    Any strided view works too (batch_mdf_to_one passes one). Bit-identical to
    calling mdf() per pair in either argument order.
    """
    return np.minimum(_mean_distances(coords, q), _mean_distances(coords, q[::-1]))


def batch_mdf_to_one(stack: np.ndarray, q: np.ndarray) -> np.ndarray:
    """MDF from every streamline in an (n, m, 3) stack to one (m, 3) streamline.

    Bit-identical to calling mdf() per pair in either argument order.
    """
    return mdf_rows(stack.transpose(2, 1, 0), q)


def stack_resampled(streamlines, m: int = DEFAULT_RESAMPLE_POINTS) -> np.ndarray:
    """Resample a sequence of streamlines into an (n, m, 3) array."""
    return np.stack([resample_points(s.points, m) for s in streamlines])
