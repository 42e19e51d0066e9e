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
  loop's in-grid and occupancy test. Once every
  half-track of a batch has ended, each run adds its s*v from its start
  point again, in the same sequence, straight into the point's final row.
- The cubic fit calls lstsq once per track, with one Vandermonde design per
  point count; a solve with many right-hand sides, or stacked, rounds
  differently.
- Extrapolation runs one voxel traversal (Amanatides & Woo 1987) over all
  endpoints. The tangent norms come from a stacked matmul, which rounds like
  np.linalg.norm of one vector; an elementwise sum of squares does not.

track writes every batch of tracks into one packed buffer that grows in
place. reconstruct runs each batch of seeds end to end in the same way: it
tracks the batch at the tail of a buffer, grows it by two rows per track,
and fits, extends and filters the tracks in place, so a batch's points are
held once, not once per stage.

Memory follows the points of one batch. Seeds are tracked in batches of
_BATCH. Besides its output, a batch holds one record of 72 bytes per voxel
run (track, first step, start point, s*v, point count) for each of its two
halves, 32 bytes more per run of the half whose records are being sorted,
and one pass's run of points with its voxel indices, under 4 * _RUN_BYTES:
at most 176 bytes per run and 4 * _RUN_BYTES. The records are sorted once,
straight from the passes that made them, and written in place. A run holds
at least one point, and about eight at the default step of a tenth of a
voxel. None of this depends on max_steps, the step count at which a
half-track is cut off. Finishing a batch then holds a few arrays per track
(the exit rays), one design per point count while it fits (freed before the
exits), and one block's scratch while it validates.

reconstruct_batches yields each finished batch and reuses its buffer for the
next, so its peak is one batch, whatever the number of seeds: the `track`
command writes each batch to disk as it comes. reconstruct collects the
batches, each finished at the tail of the output, so it holds its output
and one batch. track holds the raw tracks of every seed.

reconstruct validates each batch of its output once; track builds its set
without validating it, because raw tracks are valid by construction. They are
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

# Seeds tracked together in one batch (module docstring, "Memory").
_BATCH = 1024


def _propagate(field, mask, starts, init_dirs, cfg, max_steps):
    """March one half-track per seed; returns the point count of every
    half-track (seed excluded) and its voxel runs, sorted by _sorted_runs.

    Each pass takes every live track through one voxel: the first step does
    the full lookup and checks, and the track then continues in a straight
    run to the first step that leaves the voxel, which gets the in-grid and
    occupancy test. The module docstring says why this equals one step at a
    time bit for bit. The run length only sets how many steps a pass may
    take; a run still inside its voxel goes on in the next pass.

    A run's points are computed here only to find where it ends. What is
    kept of it is (track, first step, start point, s*v, point count), from
    which _write_runs adds the same points again.
    """
    n = len(starts)
    counts = np.zeros(n, dtype=np.int64)
    # One list per record field, of one piece per pass.
    runs = ([], [], [], [], [])

    p = starts.copy()
    prev = init_dirs.copy()
    active = np.arange(n)
    cos_gate = math.cos(math.radians(cfg.max_angle_deg))
    origin, vs = mask.origin[:, None], mask.voxel_size[:, None]
    per_voxel = int(math.ceil(float(np.linalg.norm(mask.voxel_size)) / cfg.step_mm)) + 1
    run = max(1, min(max_steps, per_voxel, _RUN_BYTES // (24 * max(n, 1))))

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
        sv = cfg.step_mm * v
        sv_t = np.ascontiguousarray(sv.T)
        q = np.empty((run, 3, m))
        np.add(here.T, sv_t, out=q[0])
        for j in range(1, run):
            np.add(q[j - 1], sv_t, out=q[j])
        # The floor rule of world_to_index, on the whole run at once. It only
        # finds the first step that leaves the start voxel, so it needs no
        # bound or occupancy test; only that step gets mask.indices_occupied.
        qidx = q - origin
        qidx /= vs
        qidx = np.floor(qidx, out=qidx).astype(np.int64)
        moved = qidx != idx.T
        left = moved[:, 0] | moved[:, 1] | moved[:, 2]
        cross = np.where(left.any(axis=0), left.argmax(axis=0), run)

        # The step that leaves the voxel, if the run gets that far.
        exits = np.flatnonzero(alive & (cross < limit))
        entered = np.zeros(m, dtype=bool)
        entered[exits] = mask.indices_occupied(qidx[cross[exits], :, exits])

        take = np.where(alive, np.minimum(cross, limit) + entered, 0)
        made = np.flatnonzero(take)
        record = (active[made], counts[active[made]], here[made], sv[made], take[made])
        for column, piece in zip(runs, record):
            column.append(piece)
        counts[active] += take

        go = np.flatnonzero(alive & ((cross >= limit) | entered))
        survivors = active[go]
        p[survivors] = q[take[go] - 1, :, go]
        prev[survivors] = v[go]
        active = survivors[counts[survivors] < max_steps]

    return counts, _sorted_runs(runs)


def _sorted_runs(runs) -> list:
    """The records of one _propagate call as five arrays (track, first step,
    start point, s*v, count), the runs sorted by point count, longest first.

    Each field is scattered from its per-pass pieces straight into its sorted
    place, so no field is held twice over, unsorted and sorted.
    """
    count = np.concatenate(runs[4])
    rank = np.empty(len(count), dtype=np.int64)
    rank[np.argsort(-count, kind="stable")] = np.arange(len(count))
    del count
    out = []
    for pieces in runs:
        field = np.empty((len(rank),) + pieces[0].shape[1:], dtype=pieces[0].dtype)
        at = 0
        for piece in pieces:
            field[rank[at : at + len(piece)]] = piece
            at += len(piece)
        pieces.clear()
        out.append(field)
    return out


def _write_runs(out, runs, rows, sign) -> None:
    """Write the points of the sorted runs of one _propagate call into out:
    point j of a half-track goes to row rows[track] + sign * j. The records'
    first steps and start points are overwritten, so runs can be written
    only once.

    Each run adds its s*v to its start point again, in sequence, as
    _propagate did, so every point is bit-identical to the one the step loop
    computes. The runs still adding at step j are a prefix of them.
    """
    track, dest, p, sv, count = runs
    dest *= sign
    dest += rows[track]
    # Points are copied as whole 24-byte rows, which numpy scatters faster
    # than rows of three floats.
    row = np.dtype((np.void, 24))
    out_rows, p_rows = out.view(row)[:, 0], p.view(row)[:, 0]
    # live[j] runs have more than j points.
    live = len(count) - np.cumsum(np.bincount(count))
    for j in range(len(live) - 1):
        k = live[j]
        p[:k] += sv[:k]
        out_rows[dest[:k]] = p_rows[:k]
        dest[:k] += sign


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


def _seeds_in_mask(field: OrientationField, mask: VoxelMask, seeds: SeedSet,
                   cfg: TrackingConfig) -> np.ndarray:
    """The seed points that lie in the mask, the others counted in the log,
    once cfg and the field are checked against the mask."""
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
    return pts[inside]


def track(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
    out: np.ndarray | None = None,
) -> StreamlineSet:
    """Track one bidirectional streamline per seed.

    Seeds outside the mask are skipped (counted in the log, not fatal). Tracks
    shorter than cfg.min_length_mm are discarded; the rest keep seed order.
    The set's points array owns its memory (it is no view), so it can be
    grown in place with ndarray.resize. Given out, an (N, 3) float64 array
    that owns its memory, the tracks are instead written after its N rows,
    which it grows in place to hold them, and the set is a view of those
    rows: reconstruct tracks each batch at the tail of its output this way.

    cfg.step_mm must not exceed the mask diagonal: a longer step takes every
    point off the grid, so no track could hold two points. The size of the
    output is not checked. A track holds about one point per step_mm of its
    length, so the points grow as 1 / step_mm: track holds those of every
    seed, reconstruct_batches (and so the `track` command) those of one
    batch of _BATCH seeds, and a tiny step_mm can make even one batch need
    more memory than the host has.
    """
    cfg = cfg or TrackingConfig()
    pts = _seeds_in_mask(field, mask, seeds, cfg)
    step_range = _step_range(mask, cfg)
    max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
    # The tracks of every batch go straight into one buffer that grows in
    # place (ndarray.resize), so that no batch is copied again.
    buf = np.empty((0, 3)) if out is None else out
    start = pos = len(buf)
    kept = []
    for lo in range(0, len(pts), _BATCH):
        batch = pts[lo : lo + _BATCH]
        idx = mask.world_to_index(batch)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        n_fwd, fwd = _propagate(field, mask, batch, v0, cfg, max_steps)
        n_bwd, bwd = _propagate(field, mask, batch, -v0, cfg, max_steps)
        counts = n_bwd + 1 + n_fwd
        offsets = _offsets(counts)
        buf.resize((pos + offsets[-1], 3), refcheck=False)
        tracks = buf[pos:]
        # Each track is its backward half reversed, the seed, its forward half.
        at = offsets[:-1] + n_bwd
        tracks[at] = batch
        _write_runs(tracks, fwd, at + 1, 1)
        _write_runs(tracks, bwd, at - 1, -1)
        del fwd, bwd
        keep = np.flatnonzero(_long_enough(tracks, offsets, counts, step_range, cfg.min_length_mm))
        kept.append(_pack_in_place(tracks, offsets, keep))
        pos += int(kept[-1].sum())
        del tracks
    counts = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    buf.resize((pos, 3), refcheck=False)
    # Valid by construction (module docstring): not validated again.
    return StreamlineSet._trusted(buf if out is None else buf[start:], _offsets(counts))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """The n + 1 offsets that pack streamlines of the given point counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


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


def _finish(buf: np.ndarray, pos: int, offsets: np.ndarray, mask: VoxelMask,
            cfg: TrackingConfig, tally: np.ndarray) -> np.ndarray:
    """Fit and extend the raw tracks that fill buf from row pos on, packed
    at offsets from there, and pack the accepted ones with their exit points
    in place from row pos; buf then ends at the last of them. Returns their
    point counts, and adds the tracks, fits skipped, extrapolations rejected
    and run-aways to tally."""
    n_tracks = len(offsets) - 1
    # Room for the two exit points a track may gain.
    buf.resize((pos + offsets[-1] + 2 * n_tracks, 3), refcheck=False)
    points = buf[pos : pos + offsets[-1]]
    designs: dict = {}
    unfitted = 0
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        if b - a >= 5:
            points[a:b] = _fit_cubic(points[a:b], designs)
        else:
            unfitted += 1
    del designs
    exits, extend, accepted, ran_away = _surface_exits(points, offsets, mask, cfg)
    del points
    counts = _with_exits(buf[pos:], offsets, exits, extend, np.flatnonzero(accepted))
    buf.resize((pos + int(counts.sum()), 3), refcheck=False)
    tally += (n_tracks, unfitted, n_tracks - len(counts), int(ran_away.sum()))
    return counts


def _reconstructed(field, mask, seeds, cfg, buf):
    """Reconstruct the seeds one batch of _BATCH at a time: each batch is
    tracked, fitted, extended and filtered in place at the tail of buf (its
    rows from len(buf) on), which grows in place to hold it. Yields every
    batch's streamlines, validated, as a set over those rows, which stays
    valid only until the next batch is drawn: growing buf may move it. Logs
    reconstruct's INFO line after the last batch."""
    cfg = cfg or TrackingConfig()
    pts = _seeds_in_mask(field, mask, seeds, cfg)
    tally = np.zeros(4, dtype=np.int64)  # tracks, fits skipped, rejected, ran away
    for lo in range(0, len(pts), _BATCH):
        pos = len(buf)
        offsets = track(field, mask, SeedSet(pts[lo : lo + _BATCH]), cfg, out=buf).offsets
        counts = _finish(buf, pos, offsets, mask, cfg, tally)
        yield StreamlineSet(buf[pos:], counts)

    n_tracks, unfitted, rejected, away = tally.tolist()
    log.info(
        "reconstruct: %d seeds, %d outside the mask; %d tracks under min_length_mm; "
        "%d fits skipped (< 5 points); %d extrapolations rejected (%d ran away, "
        "%d over max_extrap_fraction); %d streamlines",
        len(seeds), len(seeds) - len(pts), len(pts) - n_tracks, unfitted,
        rejected, away, rejected - away, n_tracks - rejected,
    )


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

    The batches of reconstruct_batches are collected in one buffer, each
    finished at its tail, so besides the output it holds one batch.
    """
    buf = np.empty((0, 3))
    counts = [batch.counts for batch in _reconstructed(field, mask, seeds, cfg, buf)]
    counts = np.concatenate(counts) if counts else np.empty(0, dtype=np.int64)
    return StreamlineSet._trusted(buf, _offsets(counts))


def reconstruct_batches(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
):
    """reconstruct's streamlines as one set per batch of _BATCH seeds, in
    seed order, and its INFO line after the last batch.

    Every set is a view of one buffer, which the next batch reuses: a caller
    that keeps a batch past the next one copies it (StreamlineSet.take). So
    the memory held is one batch's, whatever the number of seeds.
    """
    buf = np.empty((0, 3))
    for batch in _reconstructed(field, mask, seeds, cfg, buf):
        yield batch
        buf.resize((0, 3), refcheck=False)
