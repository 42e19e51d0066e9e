"""Voxel-level tractography quality metrics.

Streamline coverage (SC) is the fraction of mask voxels crossed by at least
one streamline. Streamline density (SD) is the per-voxel count of distinct
streamlines crossing it, averaged over all occupied voxels with zeros
included; SDCV is its population coefficient of variation (std/mean), the
non-uniformity measure the samplings are compared on.

density and coverage take a set or an iterable of sets that hold the
streamlines in turn, such as formats.StreamlineFile.sets, and keep no set
once they have counted it. The voxel keys of one streamline.blocks range of
at most BLOCK_POINTS // 8 points (8192 by default; one streamline that alone
holds more forms its own) are built, counted and dropped before the next:
about 145 bytes per point of that range on tracks of 0.1 mm steps through
1 mm voxels (more where the segments cross more voxel faces), so about
1.2 MB. Besides that, a count holds the set
being drawn and the count grid (8 bytes per voxel), whatever the number of
streamlines or points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import streamline
from .errors import EmptyDomainError, InvalidSpecError
from .grid import VoxelMask
from .streamline import _distinct, as_stream, blocks

SDCV_SUPPORTS = ("all", "nonzero")

log = logging.getLogger(__name__)


@dataclass
class DensityMap:
    """Per-voxel distinct-streamline counts on the mask grid."""

    counts: np.ndarray
    voxel_size: np.ndarray
    origin: np.ndarray

    def normalized(self) -> np.ndarray:
        """Counts scaled into [0, 1] by the per-mask maximum."""
        peak = self.counts.max()
        if peak <= 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / float(peak)


@dataclass
class TractMetrics:
    sc: float
    sd_mean: float
    sdcv: float
    sdcv_defined: bool = True


# A segment in a voxel-face plane meets that plane at t = 0/0; its NaN samples
# fall in no voxel, and its vertices and other crossings cover it.
@np.errstate(invalid="ignore")
def _voxel_keys(points: np.ndarray, offsets: np.ndarray, mask: VoxelMask) -> np.ndarray:
    """Sorted distinct keys s * V + v, one for each in-mask voxel v (flat,
    C order, V voxels in the grid) that streamline s of a packed block passes
    through, however briefly.

    The voxels are looked up at the vertices and at sample points just
    before and after every voxel-face crossing, so voxelization is exact
    rather than limited by a finite walking step. Each crossing is sampled
    from the segment's nearer end: from a vertex far off the grid, the
    crossing's parameter and sample would round away the near end's
    coordinates.
    """
    dims, origin, vs = mask.dims, mask.origin, mask.voxel_size
    n_vox = mask.occupancy.size

    def keys(pts, owner):
        flat, hit = mask.lookup(mask.world_to_index(pts))
        return (owner * n_vox + flat)[hit]

    sid = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    # Segment s joins rows r0[s] and r0[s] + 1; the segments that join one
    # streamline to the next are dropped.
    inner = np.ones(len(points) - 1, dtype=bool)
    inner[offsets[1:-1] - 1] = False
    r0 = np.flatnonzero(inner)
    seg = points[r0 + 1] - points[r0]
    seg_sid = sid[r0]
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    found = [keys(points, sid)]
    for a in range(3):
        c = (points[:, a] - origin[a]) / vs[a]
        c0, c1 = c[r0], c[r0 + 1]
        # Only the planes of the grid's faces 0..dims[a] have a sample in it.
        first = np.maximum(np.ceil(np.minimum(c0, c1)), 0.0)
        last = np.minimum(np.floor(np.maximum(c0, c1)), dims[a])
        counts = np.maximum(0, last - first + 1).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            continue
        seg_idx = np.repeat(np.arange(len(r0)), counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        planes = np.repeat(first, counts) + within
        c0, c1 = c0[seg_idx], c1[seg_idx]
        # t runs from the nearer end, base, along toward to the other end.
        far = np.abs(planes - c1) < np.abs(planes - c0)
        t = np.where(far, (planes - c1) / (c0 - c1), (planes - c0) / (c1 - c0))
        base = points[r0[seg_idx] + far]
        toward = seg[seg_idx]
        toward[far] *= -1.0
        dt = 1e-7 / np.maximum(seg_len[seg_idx], 1e-12)
        for sign in (-1.0, 1.0):
            ts = np.clip(t + sign * dt, 0.0, 1.0)
            found.append(keys(base + ts[:, None] * toward, seg_sid[seg_idx]))
    return _distinct(np.concatenate(found))


def _count_grid(tracts, mask: VoxelMask) -> tuple[np.ndarray, int, int]:
    """Distinct-streamline count of every voxel, how many streamlines cross
    no in-mask voxel, and how many streamlines there are, over a set or an
    iterable of sets that hold the streamlines in turn.

    Keys are built for one streamline.blocks range of at most
    BLOCK_POINTS // 8 points at a time (or one streamline that alone holds
    more): about 145 bytes per point of the range, as the module docstring
    says.
    """
    n_vox = mask.occupancy.size
    counts = np.zeros(n_vox, dtype=np.int64)
    missed = total = 0
    for sset in as_stream(tracts):
        total += len(sset)
        for lo, hi in blocks(sset.offsets, streamline.BLOCK_POINTS // 8):
            offsets = sset.offsets[lo : hi + 1] - sset.offsets[lo]
            found = _voxel_keys(sset.block(lo, hi), offsets, mask)
            # Unbuffered: a voxel that k streamlines of the range cross gains k.
            np.add.at(counts, found % n_vox, 1)
            missed += hi - lo - len(_distinct(found // n_vox))
    return counts.reshape(mask.dims), missed, total


def coverage(tracts, mask: VoxelMask) -> float:
    """Fraction of occupied voxels crossed by at least one streamline: the
    SC of density."""
    return density(tracts, mask)[1].sc


def density(tracts, mask: VoxelMask, sdcv_support: str = "all") -> tuple[DensityMap, TractMetrics]:
    """Per-voxel distinct-streamline counts plus SC / SD / SDCV of a set, or
    of an iterable of sets that hold the streamlines in turn, such as
    formats.StreamlineFile.sets: each set is counted when it is drawn and
    not kept.

    sdcv_support selects the voxels entering the SD statistics: 'all' keeps
    zero-count in-mask voxels (default), 'nonzero' drops them.
    """
    if sdcv_support not in SDCV_SUPPORTS:
        raise InvalidSpecError(f"sdcv_support must be one of {SDCV_SUPPORTS}")
    if mask.n_occupied == 0:
        raise EmptyDomainError("mask has no occupied voxels")

    counts, missed, total = _count_grid(tracts, mask)
    log.info("density: %d of %d streamlines cross no in-mask voxel", missed, total)
    occ_counts = counts[mask.occupancy]
    sc = float((occ_counts > 0).sum() / mask.n_occupied)
    sd_mean = float(occ_counts.mean())

    support = occ_counts if sdcv_support == "all" else occ_counts[occ_counts > 0]
    if len(support) == 0 or support.mean() == 0:
        sdcv = float("nan")
        defined = False
    else:
        sdcv = float(support.std(ddof=0) / support.mean())
        defined = True

    dmap = DensityMap(counts, mask.voxel_size.copy(), mask.origin.copy())
    return dmap, TractMetrics(sc=sc, sd_mean=sd_mean, sdcv=sdcv, sdcv_defined=defined)
