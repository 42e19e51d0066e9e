"""Deterministic streamline tracking with angle/anisotropy/mask termination,
cubic polynomial smoothing, and endpoint extrapolation to the mask surface.

The tracker integrates the orientation field with fixed Euler steps from each
seed in both directions. Field vectors are unsigned axes: each lookup is
sign-aligned with the previous step, and propagation stops when the angle
between adjacent steps exceeds the gate, anisotropy drops below the floor, or
the next point would leave the mask. Seeds are propagated in lockstep batches;
the result is independent of batching and ordered by seed index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidSpecError
from .grid import OrientationField, VoxelMask
from .sampling import SeedSet
from .streamline import Streamline, StreamlineSet, polyline_length

log = logging.getLogger(__name__)


@dataclass
class TrackingConfig:
    step_mm: float = 0.1
    max_angle_deg: float = 10.0
    fa_min: float = 0.1
    min_length_mm: float = 10.0
    max_extrap_fraction: float = 0.30

    def __post_init__(self):
        # Comparisons are written so that NaN fails them.
        for name in ("step_mm", "max_angle_deg", "fa_min", "min_length_mm"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidSpecError(f"{name} must be positive and finite")
        if not 0.0 < self.max_extrap_fraction < 1.0:
            raise InvalidSpecError("max_extrap_fraction must be in (0, 1)")


def _propagate(field, mask, starts, init_dirs, cfg, max_steps):
    """March one half-track per seed; returns per-seed point arrays (seed excluded)."""
    n = len(starts)
    buf = np.empty((max_steps, n, 3))
    counts = np.zeros(n, dtype=np.int64)

    p = starts.copy()
    prev = init_dirs.copy()
    active = np.arange(n)
    cos_gate = math.cos(math.radians(cfg.max_angle_deg))
    dims = np.asarray(mask.dims)

    for step in range(max_steps):
        if active.size == 0:
            break
        idx = np.floor((p[active] - mask.origin) / mask.voxel_size).astype(np.int64)
        v = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        fa = field.fa[idx[:, 0], idx[:, 1], idx[:, 2]]
        alive = fa >= cfg.fa_min

        dot = (v * prev[active]).sum(axis=1)
        v = np.where(dot[:, None] < 0, -v, v)
        cosang = (v * prev[active]).sum(axis=1)
        alive &= cosang >= cos_gate

        nxt = p[active] + cfg.step_mm * v
        nidx = np.floor((nxt - mask.origin) / mask.voxel_size).astype(np.int64)
        in_grid = ((nidx >= 0) & (nidx < dims)).all(axis=1)
        safe = np.clip(nidx, 0, dims - 1)
        alive &= in_grid & mask.occupancy[safe[:, 0], safe[:, 1], safe[:, 2]]

        survivors = active[alive]
        if survivors.size:
            p[survivors] = nxt[alive]
            prev[survivors] = v[alive]
            buf[step, survivors] = nxt[alive]
            counts[survivors] = step + 1
        active = survivors

    return [buf[: counts[i], i].copy() for i in range(n)]


def track(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
) -> StreamlineSet:
    """Track one bidirectional streamline per seed.

    Seeds outside the mask are skipped (counted in the log, not fatal). Tracks
    shorter than cfg.min_length_mm are discarded. Output ids run 0..n-1 in
    seed order.
    """
    cfg = cfg or TrackingConfig()
    mask.require_same_frame(field, "orientation field")

    pts = np.asarray(seeds.points, dtype=np.float64).reshape(-1, 3)
    inside = mask.points_in_mask(pts)
    skipped = int((~inside).sum())
    if skipped:
        log.info("track: skipped %d of %d seeds outside the mask", skipped, len(pts))
    pts = pts[inside]

    diag = mask.diagonal
    max_steps = int(math.ceil(math.pi * diag / cfg.step_mm)) + 4
    # Each half-track buffer holds max_steps * chunk * 3 float64s: keep it within 6e7 bytes.
    chunk = max(1, min(4096, int(6e7 / (max_steps * 24))))

    out: list[Streamline] = []
    next_id = 0
    for lo in range(0, len(pts), chunk):
        batch = pts[lo : lo + chunk]
        idx = np.floor((batch - mask.origin) / mask.voxel_size).astype(np.int64)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        fwd = _propagate(field, mask, batch, v0, cfg, max_steps)
        bwd = _propagate(field, mask, batch, -v0, cfg, max_steps)
        for seed, a, b in zip(batch, fwd, bwd):
            points = np.concatenate([b[::-1], seed[None], a])
            if len(points) < 2 or polyline_length(points) < cfg.min_length_mm:
                continue
            out.append(Streamline(points, id=next_id))
            next_id += 1
    return StreamlineSet(out, mask=mask)


def fit_poly3(s: Streamline) -> tuple[Streamline, float]:
    """Least-squares cubic fit of each coordinate against a parameter t in
    [0, 1], sampled back at the same parameter values.

    The parameter is the normalized point index; the tracker emits points at
    equal arc steps, so this is the normalized arc-length parameter of the
    polylines the pipeline fits. A fixed parameter grid makes the operation
    exactly idempotent on its own output.

    Returns the fitted streamline (same point count) and the RMS residual of
    the fit in mm.
    """
    pts = s.points
    if len(pts) < 5:
        raise DegenerateGeometryError("cubic fit needs at least 5 points")
    if polyline_length(pts) <= 0.0:
        raise DegenerateGeometryError("cannot fit near-coincident points")

    t = np.linspace(0.0, 1.0, len(pts))
    design = np.vander(t, 4, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, pts, rcond=None)
    if rank < 4:
        raise DegenerateGeometryError("rank-deficient cubic fit")
    out = design @ coef
    resid = out - pts
    rms = float(np.sqrt((resid * resid).sum(axis=1).mean()))
    return Streamline(out, id=s.id), rms


def _ray_exit_distance(mask: VoxelMask, start: np.ndarray, direction: np.ndarray, max_dist: float):
    """Distance along a unit ray to the first voxel-face exit from the occupied
    region, or None if no exit within max_dist."""
    eps = 1e-9
    idx = mask.world_to_index(start + eps * direction)[0]
    if not mask.indices_occupied(idx[None])[0]:
        return 0.0

    dims = np.asarray(mask.dims)
    vs = mask.voxel_size
    t_max = np.full(3, np.inf)
    t_delta = np.full(3, np.inf)
    step = np.zeros(3, dtype=np.int64)
    for a in range(3):
        if direction[a] > 0:
            face = mask.origin[a] + (idx[a] + 1) * vs[a]
            t_max[a] = (face - start[a]) / direction[a]
            t_delta[a] = vs[a] / direction[a]
            step[a] = 1
        elif direction[a] < 0:
            face = mask.origin[a] + idx[a] * vs[a]
            t_max[a] = (face - start[a]) / direction[a]
            t_delta[a] = -vs[a] / direction[a]
            step[a] = -1

    idx = idx.copy()
    while True:
        a = int(np.argmin(t_max))
        tau = float(t_max[a])
        if tau > max_dist:
            return None
        idx[a] += step[a]
        if not (0 <= idx[a] < dims[a]) or not mask.occupancy[idx[0], idx[1], idx[2]]:
            return max(tau, 0.0)
        t_max[a] += t_delta[a]


def extrapolate_to_surface(
    s: Streamline, mask: VoxelMask, cfg: TrackingConfig | None = None
) -> tuple[Streamline, bool]:
    """Extend both endpoints along their terminal tangents to the mask surface.

    Returns (streamline, accepted); accepted is False when the total added
    length exceeds cfg.max_extrap_fraction of the original arc length, or when
    a tangent fails to exit the mask within twice its diagonal.
    """
    cfg = cfg or TrackingConfig()
    pts = s.points
    original = polyline_length(pts)
    max_dist = 2.0 * mask.diagonal

    tangents = []
    for anchor, inner in ((pts[0], pts[1]), (pts[-1], pts[-2])):
        d = anchor - inner
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise DegenerateGeometryError("zero-length terminal segment")
        tangents.append(d / norm)

    tau_start = _ray_exit_distance(mask, pts[0], tangents[0], max_dist)
    tau_end = _ray_exit_distance(mask, pts[-1], tangents[1], max_dist)
    if tau_start is None or tau_end is None:
        log.warning("extrapolation ran away for streamline %d; rejecting", s.id)
        return s, False

    pieces = [pts]
    if tau_start > 1e-12:
        pieces.insert(0, (pts[0] + tau_start * tangents[0])[None])
    if tau_end > 1e-12:
        pieces.append((pts[-1] + tau_end * tangents[1])[None])
    added = (tau_start if tau_start > 1e-12 else 0.0) + (tau_end if tau_end > 1e-12 else 0.0)
    out = Streamline(np.concatenate(pieces), id=s.id) if len(pieces) > 1 else s
    accepted = added <= cfg.max_extrap_fraction * original
    return out, accepted


def reconstruct(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
) -> StreamlineSet:
    """Full per-seed reconstruction: track, cubic-fit, extrapolate, filter.

    This is the pipeline order used ahead of any filtering: smoothing and
    endpoint extrapolation happen before streamlines are sampled or compared.
    """
    cfg = cfg or TrackingConfig()
    tracked = track(field, mask, seeds, cfg)
    out: list[Streamline] = []
    next_id = 0
    for s in tracked:
        if len(s) >= 5:
            s, _ = fit_poly3(s)
        s, accepted = extrapolate_to_surface(s, mask, cfg)
        if not accepted:
            continue
        out.append(Streamline(s.points, id=next_id))
        next_id += 1
    return StreamlineSet(out, mask=mask)
