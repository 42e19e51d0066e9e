"""Deterministic streamline tracking with angle/anisotropy/mask termination,
cubic polynomial smoothing, and endpoint extrapolation to the mask surface.

The tracker integrates the orientation field with fixed Euler steps from each
seed in both directions. Field vectors are unsigned axes: each lookup is
sign-aligned with the previous step, and propagation stops when the angle
between adjacent steps exceeds the gate, anisotropy drops below the floor, or
the next point would leave the mask. Seeds are propagated in lockstep batches;
the result is independent of batching and ordered by seed index.

Each stage runs over all tracks at once, and its output is bit-identical to
taking one Euler step, one fit and one ray at a time (the form that
tests/reference_tracking.py keeps as the oracle):

- Propagation advances in voxel runs. The field is nearest-neighbour, so
  inside one voxel every step after the first uses the same aligned vector v:
  its anisotropy check has already passed, its angle check reduces to
  v.v >= cos(gate) (still evaluated: a fine gate can fail it), and its target
  is the current, occupied voxel until a step crosses a face. A run adds s*v
  to the previous point one step at a time, the same float additions the
  step loop makes, and locates each point with the loop's own
  floor((q - origin) / voxel_size). The step that crosses a face gets the
  loop's in-grid and occupancy test.
- The cubic fit calls lstsq once per track, with one Vandermonde design per
  point count; a solve with many right-hand sides, or stacked, rounds
  differently.
- Extrapolation runs one voxel traversal (Amanatides & Woo 1987) over all
  endpoints. The tangent norms come from a stacked matmul, which rounds like
  np.linalg.norm of one vector; an elementwise sum of squares does not.

track writes every batch of tracks into one packed buffer that grows in
place, and reconstruct grows that buffer by two rows per track and fits and
extends the tracks in it, so the points are held once, not once per stage.

reconstruct validates its output once; track builds its set without
validating it, because raw tracks are valid by construction. They are
finite: every seed lies in the mask, whose grid is finite, and every later
point is the previous one plus s*v, with s finite and v from a voxel whose
anisotropy passes fa_min > 0, where OrientationField holds finite unit
vectors. They have positive length, hence two or more points: _long_enough
keeps only tracks of arc length >= min_length_mm, which TrackingConfig
requires to be > 0.

Two length tests are settled by bounds, and the arc length (streamline.
arc_lengths) is computed only for the tracks a bound leaves undecided (the
tests against the oracle include cases where a bound is tight, so that only
its margin keeps the result exact):

- Step count. Each segment of a raw track of c points is one Euler step s*v,
  with v from a voxel whose anisotropy passes fa_min, so its length is s*|v|
  and the track's lies in (c - 1) * s * [min |v|, max |v|] over those
  voxels. fa_min > 0, and OrientationField holds every vector with fa > 0
  to a computed norm within grid.UNIT_TOL of 1, itself within 2**-50 of the
  exact norm, so |v| lies within UNIT_TOL + 2**-50 of 1. A computed segment
  differs from s*|v| by the rounding of one addition to a point and one
  subtraction back, at most 8 * 2**-53 * (R + s * max |v|) for coordinates
  of magnitude up to R, the mask's; the summed length adds
  2 * (c + 16) * 2**-53, relative. A track whose whole range lies on one
  side of min_length_mm is kept or dropped without measuring it.
- Chord. A polyline is at least as long as its chord. A track whose added
  extrapolation length is at most max_extrap_fraction times its chord,
  less 2 * (c + 16) * 2**-53 of that for rounding, is accepted without
  measuring it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidSpecError
from .grid import UNIT_TOL, OrientationField, VoxelMask
from .sampling import SeedSet
from .streamline import StreamlineSet, _lengths

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
        for name in ("step_mm", "fa_min", "min_length_mm"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidSpecError(f"{name} must be positive and finite")
        # The gate compares cosines, so an angle over 180 would wrap.
        if not 0 < self.max_angle_deg <= 180:
            raise InvalidSpecError("max_angle_deg must be in (0, 180]")
        if not 0.0 < self.max_extrap_fraction < 1.0:
            raise InvalidSpecError("max_extrap_fraction must be in (0, 1)")


# Upper bound on the bytes of the points one propagation pass computes ahead.
_RUN_BYTES = 1 << 22


def _propagate(field, mask, starts, init_dirs, cfg, max_steps):
    """March one half-track per seed; returns the points of every half-track
    (seed excluded), packed in seed order, and the count of each.

    Each pass takes every live track through one voxel: the first step does
    the full lookup and checks, and the track then continues in a straight
    run to the first step that leaves the voxel, which gets the in-grid and
    occupancy test. The module docstring says why this equals one step at a
    time bit for bit. The run length only sets how many steps a pass may
    take; a run still inside its voxel goes on in the next pass.
    """
    n = len(starts)
    buf = np.empty((max_steps, n, 3))
    flat = buf.reshape(-1)
    counts = np.zeros(n, dtype=np.int64)

    p = starts.copy()
    prev = init_dirs.copy()
    active = np.arange(n)
    cos_gate = math.cos(math.radians(cfg.max_angle_deg))
    origin, vs = mask.origin[:, None], mask.voxel_size[:, None]
    per_voxel = int(math.ceil(float(np.linalg.norm(mask.voxel_size)) / cfg.step_mm)) + 1
    run = max(1, min(max_steps, per_voxel, _RUN_BYTES // (24 * max(n, 1))))
    offsets = np.arange(run)[:, None]

    while active.size:
        m = len(active)
        here = p[active]
        idx = mask.world_to_index(here)
        v = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        fa = field.fa[idx[:, 0], idx[:, 1], idx[:, 2]]
        alive = fa >= cfg.fa_min

        dot = (v * prev[active]).sum(axis=1)
        v = np.where(dot[:, None] < 0, -v, v)
        cosang = (v * prev[active]).sum(axis=1)
        alive &= cosang >= cos_gate
        # Every later step in this voxel compares v with itself.
        limit = np.where((v * v).sum(axis=1) >= cos_gate, run, 1)
        limit = np.minimum(limit, max_steps - counts[active])

        # The run is laid out (step, coordinate, track), so that every
        # elementwise pass runs over rows of m contiguous values. Each point
        # is the previous one plus s*v, added in sequence as the loop does.
        sv = (cfg.step_mm * v).T
        q = np.empty((run, 3, m))
        np.add(here.T, sv, out=q[0])
        for j in range(1, run):
            np.add(q[j - 1], sv, out=q[j])
        # The floor rule of world_to_index, on the whole run at once. It only
        # finds the first step that leaves the start voxel, so it needs no
        # bound or occupancy test; only that step gets mask.indices_occupied.
        qidx = np.floor((q - origin) / vs).astype(np.int64)
        moved = qidx != idx.T
        left = moved[:, 0] | moved[:, 1] | moved[:, 2]
        cross = np.where(left.any(axis=0), left.argmax(axis=0), run)

        # The step that leaves the voxel, if the run gets that far.
        exits = np.flatnonzero(alive & (cross < limit))
        entered = np.zeros(m, dtype=bool)
        entered[exits] = mask.indices_occupied(qidx[cross[exits], :, exits])

        take = np.where(alive, np.minimum(cross, limit) + entered, 0)
        emit = np.flatnonzero(offsets < take)
        step, col = np.divmod(emit, m)
        dest = 3 * ((counts[active][col] + step) * n + active[col])
        src = 3 * m * step + col
        for c in range(3):
            flat[dest + c] = q.reshape(-1)[src + c * m]
        counts[active] += take

        go = np.flatnonzero(alive & ((cross >= limit) | entered))
        survivors = active[go]
        p[survivors] = q[take[go] - 1, :, go]
        prev[survivors] = v[go]
        active = survivors[counts[survivors] < max_steps]

    # Point j of half-track i sits at flat row j * n + i of the step-major buffer.
    rows = np.repeat(np.arange(n) - n * (np.cumsum(counts) - counts), counts)
    rows += n * np.arange(len(rows))
    return buf.reshape(-1, 3).take(rows, axis=0), counts


def _pack_in_place(buf, offsets, rows, head=0, tail=0) -> np.ndarray:
    """Move the tracks at rows (ascending) to the front of buf, leaving one
    free row before each track whose head is set and one after each whose
    tail is set; returns their new point counts. buf must have the room.

    Closing the gaps left by the other tracks moves every track towards the
    front, so that pass runs first to last; opening the free rows moves them
    towards the back, so that pass runs last to first. Neither pass
    overwrites a track it has yet to move.
    """
    starts, counts = offsets[rows], offsets[rows + 1] - offsets[rows]
    packed = np.cumsum(counts) - counts
    new_counts = counts + head + tail
    opened = np.cumsum(new_counts) - new_counts + head
    moves = list(zip(starts.tolist(), packed.tolist(), counts.tolist()))
    moves += reversed(list(zip(packed.tolist(), opened.tolist(), counts.tolist())))
    for src, dst, n in moves:
        if src != dst:
            buf[dst : dst + n] = buf[src : src + n]
    return new_counts


def _step_range(mask: VoxelMask, cfg: TrackingConfig):
    """(low, high, slack): every computed segment length of a raw track lies
    in [low - slack, high + slack], up to the relative rounding that
    _long_enough allows for.

    low and high are step_mm times the bounds on the norm of a usable field
    vector (module docstring); slack covers the rounding of one step's
    addition to a point and the subtraction back, at coordinates of the
    mask's largest magnitude.
    """
    tol = UNIT_TOL + 2.0**-50
    low, high = cfg.step_mm * (1.0 - tol), cfg.step_mm * (1.0 + tol)
    reach = float(np.max(np.abs(mask.origin) + mask.world_extent))
    return low, high, 8 * 2.0**-53 * (reach + high)


def _long_enough(points, offsets, counts, step_range, min_length: float) -> np.ndarray:
    """arc_lengths(points, offsets) >= min_length for the raw tracks of a
    packed buffer, with exact lengths only for the tracks that the
    step-count bound of the module docstring leaves undecided."""
    low, high, slack = step_range
    segments = counts - 1  # every track holds its seed
    rel = 2 * (counts + 16) * 2.0**-53
    keep = segments * (low - slack) * (1.0 - rel) >= min_length
    unsure = np.flatnonzero(~keep & (segments * (high + slack) * (1.0 + rel) >= min_length))
    if unsure.size:
        keep[unsure] = _lengths(points, offsets[unsure], counts[unsure]) >= min_length
    return keep


def track(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
) -> StreamlineSet:
    """Track one bidirectional streamline per seed.

    Seeds outside the mask are skipped (counted in the log, not fatal). Tracks
    shorter than cfg.min_length_mm are discarded; the rest keep seed order.
    The set's points array owns its memory (it is no view), so it can be
    grown in place with ndarray.resize, as reconstruct does.

    cfg.step_mm must not exceed the mask diagonal: a longer step takes every
    point off the grid, so no track could hold two points.
    """
    cfg = cfg or TrackingConfig()
    mask.require_same_frame(field, "orientation field")
    if cfg.step_mm > mask.diagonal:
        raise InvalidSpecError(
            f"step_mm must not exceed the mask diagonal ({mask.diagonal:.6g} mm), got {cfg.step_mm}"
        )

    pts = seeds.points
    inside = mask.points_in_mask(pts)
    skipped = int((~inside).sum())
    if skipped:
        log.info("track: skipped %d of %d seeds outside the mask", skipped, len(pts))
    pts = pts[inside]

    step_range = _step_range(mask, cfg)
    max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
    # Each half-track buffer holds max_steps * chunk * 3 float64s: keep it within 6e7 bytes.
    chunk = max(1, min(4096, int(6e7 / (max_steps * 24))))
    # The tracks of every chunk go straight into one buffer that grows in
    # place (ndarray.resize), so that no chunk is copied again.
    buf, pos, kept = np.empty((0, 3)), 0, []
    for lo in range(0, len(pts), chunk):
        batch = pts[lo : lo + chunk]
        idx = mask.world_to_index(batch)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        fwd, n_fwd = _propagate(field, mask, batch, v0, cfg, max_steps)
        bwd, n_bwd = _propagate(field, mask, batch, -v0, cfg, max_steps)
        counts = n_bwd + 1 + n_fwd
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        buf.resize((pos + offsets[-1], 3), refcheck=False)
        tracks = buf[pos:]
        # Each track is its backward half reversed, the seed, its forward half.
        at = offsets[:-1] + n_bwd
        tracks[at] = batch
        tracks[np.repeat(at + 1 - (np.cumsum(n_fwd) - n_fwd), n_fwd) + np.arange(len(fwd))] = fwd
        tracks[np.repeat(at - 1 + (np.cumsum(n_bwd) - n_bwd), n_bwd) - np.arange(len(bwd))] = bwd
        del fwd, bwd
        keep = np.flatnonzero(_long_enough(tracks, offsets, counts, step_range, cfg.min_length_mm))
        kept.append(_pack_in_place(tracks, offsets, keep))
        pos += int(kept[-1].sum())
        del tracks
    counts = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    buf.resize((pos, 3), refcheck=False)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Valid by construction (module docstring): not validated again.
    return StreamlineSet._trusted(buf, offsets)


def _fit_cubic(points: np.ndarray, designs: dict) -> np.ndarray:
    """Least-squares cubic fit of one (n, 3) track, n >= 5, sampled back at
    its own parameter values.

    designs maps a point count to its Vandermonde design and is filled on
    first use, so that tracks of one length share one design. Each track
    still gets its own lstsq call: a solve with many right-hand sides rounds
    differently.
    """
    n = len(points)
    if n < 5:
        raise DegenerateGeometryError("cubic fit needs at least 5 points")
    design = designs.get(n)
    if design is None:
        design = designs[n] = np.vander(np.linspace(0.0, 1.0, n), 4, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, points, rcond=None)
    if rank < 4:
        raise DegenerateGeometryError("rank-deficient cubic fit")
    return design @ coef


def _ray_exits(mask: VoxelMask, starts: np.ndarray, directions: np.ndarray, max_dist: float):
    """Distance along each unit ray to its first voxel-face exit from the
    occupied region: 0 where the ray starts outside it, NaN where no exit
    lies within max_dist.

    One voxel traversal (Amanatides & Woo 1987) steps every unfinished ray
    across one face per iteration.
    """
    eps = 1e-9
    idx = mask.world_to_index(starts + eps * directions)
    tau = np.zeros(len(starts))
    active = np.flatnonzero(mask.indices_occupied(idx))

    vs = mask.voxel_size
    d, p, idx = directions[active], starts[active], idx[active]
    step = np.sign(d).astype(np.int64)
    face = mask.origin + (idx + (step > 0)) * vs
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(step != 0, (face - p) / d, np.inf)
        t_delta = np.where(step > 0, vs / d, np.where(step < 0, -vs / d, np.inf))

    rows = np.arange(len(active))
    while rows.size:
        a = np.argmin(t_max[rows], axis=1)
        t = t_max[rows, a]
        far = t > max_dist
        tau[active[rows[far]]] = np.nan
        rows, a, t = rows[~far], a[~far], t[~far]
        idx[rows, a] += step[rows, a]
        stay = mask.indices_occupied(idx[rows])
        tau[active[rows[~stay]]] = np.where(0.0 > t[~stay], 0.0, t[~stay])
        rows, a = rows[stay], a[stay]
        t_max[rows, a] += t_delta[rows, a]
    return tau


def _surface_exits(points: np.ndarray, offsets: np.ndarray, mask: VoxelMask, cfg: TrackingConfig):
    """Where both terminal tangents of every track of a packed buffer leave
    the mask.

    Returns (exits, extend, accepted, ran_away): exits (n, 2, 3) holds the
    exit points beyond the first and the last point, and extend (n, 2) marks
    those that lie more than 1e-12 mm out. accepted is False where a tangent
    ran away (no exit within twice the mask diagonal; such a track is not
    extended) or where the added length exceeds cfg.max_extrap_fraction of
    the track's arc length.
    """
    first, last = offsets[:-1], offsets[1:] - 1
    anchors = np.stack([points[first], points[last]], axis=1).reshape(-1, 3)
    d = anchors - np.stack([points[first + 1], points[last - 1]], axis=1).reshape(-1, 3)
    # A stacked matmul rounds each squared norm like np.linalg.norm of one vector.
    norm = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    if (norm == 0.0).any():
        raise DegenerateGeometryError("zero-length terminal segment")
    tangents = d / norm[:, None]

    tau = _ray_exits(mask, anchors, tangents, 2.0 * mask.diagonal)
    exits = (anchors + tau[:, None] * tangents).reshape(-1, 2, 3)
    tau = tau.reshape(-1, 2)
    ran_away = np.isnan(tau).any(axis=1)
    extend = (tau > 1e-12) & ~ran_away[:, None]
    added = np.where(extend, tau, 0.0)
    added = added[:, 0] + added[:, 1]
    # The chord bound of the module docstring accepts most tracks; the rest
    # are measured.
    counts = last + 1 - first
    span = points[last] - points[first]
    chord = np.sqrt((span * span).sum(axis=1))
    rel = 2 * (counts + 16) * 2.0**-53
    accepted = ~ran_away & (added <= cfg.max_extrap_fraction * chord * (1.0 - rel))
    unsure = np.flatnonzero(~ran_away & ~accepted)
    if unsure.size:
        lengths = _lengths(points, first[unsure], counts[unsure])
        accepted[unsure] = added[unsure] <= cfg.max_extrap_fraction * lengths
    return exits, extend, accepted, ran_away


def _with_exits(buf, offsets, exits, extend, rows) -> np.ndarray:
    """Pack the tracks at rows into the front of buf, adding at each end the
    exit point that extend marks; returns their point counts."""
    head, tail = extend[rows, 0], extend[rows, 1]
    counts = _pack_in_place(buf, offsets, rows, head, tail)
    first = np.cumsum(counts) - counts
    buf[first[head]] = exits[rows[head], 0]
    buf[(first + counts - 1)[tail]] = exits[rows[tail], 1]
    return counts


def reconstruct(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
) -> StreamlineSet:
    """Full per-seed reconstruction: track, cubic-fit, extrapolate, filter.

    This is the pipeline order used ahead of any filtering: smoothing and
    endpoint extrapolation happen before streamlines are sampled or compared.
    Logs one INFO line with what each stage dropped.
    """
    cfg = cfg or TrackingConfig()
    tracked = track(field, mask, seeds, cfg)
    n_tracks, offsets, buf = len(tracked), tracked.offsets, tracked.points
    del tracked
    # Room for the two exit points a track may gain; each stage below
    # rewrites this buffer in place.
    buf.resize((offsets[-1] + 2 * n_tracks, 3), refcheck=False)
    points = buf[: offsets[-1]]
    designs: dict = {}
    unfitted = 0
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        if b - a >= 5:
            points[a:b] = _fit_cubic(points[a:b], designs)
        else:
            unfitted += 1
    exits, extend, accepted, ran_away = _surface_exits(points, offsets, mask, cfg)
    counts = _with_exits(buf, offsets, exits, extend, np.flatnonzero(accepted))
    away = int(ran_away.sum())
    del points
    out = StreamlineSet(buf[: counts.sum()], counts)

    n_in = int(mask.points_in_mask(seeds.points).sum())
    rejected = n_tracks - len(out)
    log.info(
        "reconstruct: %d seeds, %d outside the mask; %d tracks under min_length_mm; "
        "%d fits skipped (< 5 points); %d extrapolations rejected (%d ran away, "
        "%d over max_extrap_fraction); %d streamlines",
        len(seeds), len(seeds) - n_in, n_in - n_tracks, unfitted,
        rejected, away, rejected - away, len(out),
    )
    return out
