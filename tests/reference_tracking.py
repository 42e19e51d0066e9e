"""Step-at-a-time reference for muscletract.tracking.

These are the tracker, cubic fit and ray exit written one Euler step, one
track and one ray at a time. The library runs each stage over all tracks at
once; tests require its output to equal this reference bit for bit.
"""

import math

import numpy as np

from muscletract.errors import DegenerateGeometryError
from muscletract.tracking import TrackingConfig
from reference_streamline import arc_length, pack


def propagate(field, mask, starts, init_dirs, cfg, max_steps):
    """March one half-track per seed, one step per iteration for all seeds;
    returns per-seed point arrays (seed excluded)."""
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


def track(field, mask, seeds, cfg):
    """One bidirectional track per in-mask seed, through propagate()."""
    pts = seeds.points[mask.points_in_mask(seeds.points)]
    max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
    idx = np.floor((pts - mask.origin) / mask.voxel_size).astype(np.int64)
    v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
    fwd = propagate(field, mask, pts, v0, cfg, max_steps)
    bwd = propagate(field, mask, pts, -v0, cfg, max_steps)
    out = []
    for seed, a, b in zip(pts, fwd, bwd):
        points = np.concatenate([b[::-1], seed[None], a])
        if len(points) < 2 or arc_length(points) < cfg.min_length_mm:
            continue
        out.append(points)
    return pack(out)


def fit_poly3(points):
    """Cubic least-squares fit of one track, building its own design."""
    if len(points) < 5:
        raise DegenerateGeometryError("cubic fit needs at least 5 points")
    t = np.linspace(0.0, 1.0, len(points))
    design = np.vander(t, 4, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, points, rcond=None)
    if rank < 4:
        raise DegenerateGeometryError("rank-deficient cubic fit")
    return design @ coef


def ray_exit_distance(mask, start, direction, max_dist):
    """Distance along one unit ray to the first voxel-face exit from the
    occupied region, or None if no exit within max_dist."""
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


def extrapolate(points, mask, cfg):
    """Extend both ends of one track to the mask surface; returns
    (points, accepted, ran_away)."""
    original = arc_length(points)
    max_dist = 2.0 * mask.diagonal
    tangents = []
    for anchor, inner in ((points[0], points[1]), (points[-1], points[-2])):
        d = anchor - inner
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise DegenerateGeometryError("zero-length terminal segment")
        tangents.append(d / norm)

    tau_start = ray_exit_distance(mask, points[0], tangents[0], max_dist)
    tau_end = ray_exit_distance(mask, points[-1], tangents[1], max_dist)
    if tau_start is None or tau_end is None:
        return points, False, True

    pieces = [points]
    if tau_start > 1e-12:
        pieces.insert(0, (points[0] + tau_start * tangents[0])[None])
    if tau_end > 1e-12:
        pieces.append((points[-1] + tau_end * tangents[1])[None])
    added = (tau_start if tau_start > 1e-12 else 0.0) + (tau_end if tau_end > 1e-12 else 0.0)
    out = np.concatenate(pieces) if len(pieces) > 1 else points
    return out, added <= cfg.max_extrap_fraction * original, False


def reconstruct(field, mask, seeds, cfg=None):
    """Track, then fit and extrapolate one track at a time."""
    cfg = cfg or TrackingConfig()
    out = []
    for pts in track(field, mask, seeds, cfg):
        pts = fit_poly3(pts) if len(pts) >= 5 else pts
        pts, accepted, _ = extrapolate(pts, mask, cfg)
        if accepted:
            out.append(pts)
    return pack(out)
