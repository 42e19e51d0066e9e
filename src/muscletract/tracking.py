"""Deterministic streamline tracking with angle/anisotropy/mask termination,
cubic polynomial smoothing, and endpoint extrapolation to the mask surface.

The tracker integrates the orientation field with fixed Euler steps from each
seed in both directions. Field vectors are unsigned axes: each lookup is
sign-aligned with the previous step, and propagation stops when the angle
between adjacent steps exceeds the gate, anisotropy drops below the floor, or
the next point would leave the mask. Seeds are propagated in lockstep batches;
the result is independent of batching and blocking, and ordered by seed
index.

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
  half-track of a batch has ended, each run looks up its v again at its
  start point and adds s*v from there, in the same sequence, straight into
  the point's row in its block's buffer.
- The cubic fit calls lstsq once per track, with one Vandermonde design per
  point count; a solve with many right-hand sides, or stacked, rounds
  differently.
- Extrapolation runs one voxel traversal (Amanatides & Woo 1987) over all
  endpoints. The tangent norms come from a stacked matmul, which rounds like
  np.linalg.norm of one vector; an elementwise sum of squares does not.

Seeds are tracked in batches sized from the mask ("Memory" below). Once
both halves of a batch have been propagated, every raw track's point count
is known before any point is written, so each track gets a slot: a free
row, its backward half reversed, the seed, its forward half and a free row.
The slots are written one streamline.blocks range at a time (at most
BLOCK_POINTS rows, or one slot that alone holds more) into a buffer of
their own. reconstruct_batches fits and extends each block's tracks there,
writes each exit point into its free row, and packs the accepted tracks to
the front once, so a block's points are held once, not once per stage.

Memory follows the voxel runs of one batch and the points of one block, not
the points of a batch. Each voxel run is one record of 40 bytes: track, first
step, start point, and point count, negative where the pass negated the field
vector (s*v is looked up again at the start point, not stored). The records
of each half fill a _Runs store that reconstruct_batches allocates once and
every batch fills again; it grows only when a half makes more runs than any
half before it. While a batch propagates, it also holds one pass's run of
points with its voxel indices, under 4 * _RUN_BYTES. Its records are never
moved: each half keeps their order by block and point count, 8 bytes per
run, and sorting a half holds 8 bytes more per run of that half. A block's
records are gathered with their s*v to be written, at most _RUN_BYTES // 24
at a time, at 72 bytes each. So a batch holds at most 56 bytes per run of
the batch with the most runs so far, and 4 * _RUN_BYTES.

A batch of an nx x ny x nz mask holds min(_BATCH, _BATCH_RUNS // (nx + ny +
nz)) seeds. A straight fibre crosses at most nx + ny + nz - 2 voxels, and
its track makes one run per voxel it crosses and one more (both halves
start in the seed's voxel), since _pass_steps splits no run across two
passes while _RUN_BYTES does not cut a pass shorter. So a batch of straight
fibres makes at most _BATCH_RUNS runs, 56 bytes each. For curved fibres
_BATCH_RUNS only estimates them: per seed and per voxel of nx + ny + nz,
the benchmark's default and long boxes make 0.62 runs, its arcs 0.34-0.38
and its thin jittered boxes 0.27. A run holds at least one point, and about
eight at the default step of a tenth of a voxel; while a voxel's steps fit
one run, the number of runs does not depend on the step. None of this
depends on max_steps, the step count at which a half-track is cut off. A
block holds its rows at 24 bytes each, two free rows per track among them,
and finishing it a few arrays per track (the exit rays) and one design at a
time while it fits the tracks grouped by point count. A batch's orders are
released before the next batch is propagated, and the stores when the
reconstruct_batches call ends.

reconstruct_batches, the one tracking entry point, yields each finished
block as a float64 set and releases its buffer before it writes the next, so
its peak is the run records of the batch with the most runs and one block,
whatever the number of seeds or the step, and for straight fibres whatever
the extent of the mask: the `track` and `filter --method 3ds|2ds` commands
write each set to disk as it comes (formats.save_streamlines), and a caller
that wants the whole set reads the file back (formats.load_streamlines).

Each point is validated once on its way to disk, by the STRL writer, at
the float32 rounding that it writes (the rounding can collapse a track far
from the origin to a point); a reader of the file gets the same verdict on
the float64 values of those words. reconstruct_batches builds its sets
without validating them, because they are valid by construction. Raw tracks are finite: every
seed lies in the mask, whose grid is finite, and every later point is the
previous one plus s*v, with s finite and v from a voxel whose anisotropy
passes fa_min > 0, where OrientationField holds finite unit vectors. They
have positive length, hence two or more points: _long_enough keeps only
tracks of arc length >= min_length_mm, which TrackingConfig requires to be
> 0. A finished track stays so: its cubic fit and exit points are finite
(an exit is added only within twice the mask diagonal), and _surface_exits
raises unless the first segment of every track has non-zero length.

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

import contextlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidSpecError
from .grid import UNIT_TOL, OrientationField, VoxelMask
from .sampling import SeedSet
from .streamline import StreamlineSet, _by_count, _lengths, _offsets, blocks

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

# Most seeds tracked together in one batch (module docstring, "Memory").
_BATCH = 1024

# Voxel runs one batch of straight fibres may make: a batch holds _BATCH_RUNS
# // (nx + ny + nz) seeds, at most _BATCH. The CLI-default 20 x 12 x 60 box
# holds 1024.
_BATCH_RUNS = 1024 * 92

# Voxels whose directions _pass_steps reads at a time.
_SLAB_VOXELS = 1 << 12


class _Runs:
    """The voxel-run records of one half of a batch, in columns that one
    reconstruct_batches call allocates and every batch fills again: track
    (int32), first step (int64), start point (3 float64) and signed point
    count (int32), 40 bytes per run. The count is negative where the pass
    negated the field vector, so s*v is not stored: records() looks it up
    again at the start point, with the operations _propagate made on it.
    The columns grow only when full, and only to the size a pass needs: the
    largest number of runs a half of any batch has made so far.
    """

    def __init__(self, field: OrientationField, mask: VoxelMask, step_mm: float):
        self.field, self.mask, self.step_mm = field, mask, step_mm
        self.n = 0
        self.track = np.empty(0, dtype=np.int32)
        self.first = np.empty(0, dtype=np.int64)
        self.start = np.empty((0, 3))
        self.count = np.empty(0, dtype=np.int32)

    def append(self, track, first, start, count) -> None:
        lo = self.n
        self.n += len(track)
        if self.n > len(self.track):
            # In place: no view of a column outlives the call that took it.
            for column in (self.track, self.first, self.start, self.count):
                column.resize((self.n,) + column.shape[1:], refcheck=False)
        self.track[lo : self.n] = track
        self.first[lo : self.n] = first
        self.start[lo : self.n] = start
        self.count[lo : self.n] = count

    def records(self, rows):
        """(track, first step, start point, s*v, point count) of the runs at
        rows, as arrays of their own."""
        start = self.start[rows]
        idx = self.mask.world_to_index(start)
        sv = self.field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        del idx
        count = self.count[rows]
        np.negative(sv, out=sv, where=count[:, None] < 0)
        sv *= self.step_mm
        return self.track[rows], self.first[rows], start, sv, np.abs(count, out=count)


def _pass_steps(field: OrientationField, mask: VoxelMask, cfg: TrackingConfig) -> int:
    """The steps one _propagate pass computes ahead: the longest chord that
    a usable field direction (fa >= fa_min) can run inside one voxel, in
    steps, capped at the voxel diagonal's ceil(|h| / s) + 1.

    A run moves s*|v_a| along axis a per step and stays in its start voxel,
    h_a wide, so at most floor(h_a / (s*|v_a|)) of its steps stay inside and
    the next one leaves. Over the voxels whose direction a run can use, that
    is floor(max_voxels min_a h_a / (s*|v_a|)) + 1 steps; one more covers
    the rounding of the bound and of the run's additions, so that no run is
    split across two passes. The bound only helps where usable directions
    avoid voxel diagonals: at the default step on 1 mm voxels it is 12 to 16
    steps on every benchmark phantom, and a field with one near-diagonal
    usable direction falls back to the diagonal's 19. The field is read
    _SLAB_VOXELS voxels at a time.
    """
    vs = mask.voxel_size
    diagonal = int(math.ceil(float(np.linalg.norm(vs)) / cfg.step_mm)) + 1
    rows = max(1, _SLAB_VOXELS // (field.dims[1] * field.dims[2]))
    chord = 0.0
    for x in range(0, field.dims[0], rows):
        v = np.abs(field.directions[x : x + rows][field.fa[x : x + rows] >= cfg.fa_min])
        with np.errstate(divide="ignore"):  # inf along an axis that v does not move on
            steps = (vs / cfg.step_mm) / v
        chord = max(chord, float(steps.min(axis=1).max(initial=0.0)))
    return min(diagonal, math.floor(chord) + 2)


def _propagate(field, mask, starts, init_dirs, cfg, max_steps, pass_steps, runs: _Runs):
    """March one half-track per seed, with its voxel runs recorded in runs
    (which it empties first); returns the point count of every half-track
    (seed excluded).

    Each pass takes every live track through one voxel: the first step does
    the full lookup and checks, and the track then continues in a straight
    run to the first step that leaves the voxel, which gets the in-grid and
    occupancy test. The module docstring says why this equals one step at a
    time bit for bit. A pass computes pass_steps steps ahead (_pass_steps,
    cut to max_steps and to _RUN_BYTES of points), which only sets how many
    steps it may take: a run still inside its voxel goes on in the next
    pass, so every pass length gives the same bits, and at _pass_steps'
    chord bound no run needs a second pass.

    A run's points are computed here only to find where it ends. What is
    kept of it is a _Runs record, from which _write_runs adds the same
    points again.
    """
    n = len(starts)
    counts = np.zeros(n, dtype=np.int64)
    runs.n = 0

    p = starts.copy()
    prev = init_dirs.copy()
    active = np.arange(n)
    cos_gate = math.cos(math.radians(cfg.max_angle_deg))
    origin, vs = mask.origin[:, None], mask.voxel_size[:, None]
    run = max(1, min(max_steps, pass_steps, _RUN_BYTES // (24 * max(n, 1))))

    while active.size:
        m = len(active)
        here = p[active]
        idx = mask.world_to_index(here)
        v = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        fa = field.fa[idx[:, 0], idx[:, 1], idx[:, 2]]
        alive = fa >= cfg.fa_min

        dot = (v * prev[active]).sum(axis=1)
        flip = dot < 0
        v = np.where(flip[:, None], -v, v)
        cosang = (v * prev[active]).sum(axis=1)
        alive &= cosang >= cos_gate
        # Every later step in this voxel compares v with itself.
        limit = np.where((v * v).sum(axis=1) >= cos_gate, run, 1)
        limit = np.minimum(limit, max_steps - counts[active])

        # The run is laid out (step, coordinate, track), so that every
        # elementwise pass runs over rows of m contiguous values. Each point
        # is the previous one plus s*v, added in sequence as the loop does.
        sv_t = np.ascontiguousarray((cfg.step_mm * v).T)
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
        runs.append(active[made], counts[active[made]], here[made],
                    np.where(flip, -take, take)[made])
        counts[active] += take

        go = np.flatnonzero(alive & ((cross >= limit) | entered))
        survivors = active[go]
        p[survivors] = q[take[go] - 1, :, go]
        prev[survivors] = v[go]
        active = survivors[counts[survivors] < max_steps]

    return counts


def _sorted_runs(runs: _Runs, block) -> np.ndarray:
    """The order of the records of runs by the block of their track
    (block[track], ascending), then by point count, longest first. The order
    among runs of one block and count does not matter: every point row is
    written once, by the one run that holds it.

    Only this permutation is made (16 bytes per run while it sorts); the
    records stay where _propagate put them.
    """
    key = runs.count[: runs.n].astype(np.int64)
    np.abs(key, out=key)
    top = int(key.max(initial=0)) + 1
    np.negative(key, out=key)
    group = block[runs.track[: runs.n]]
    group *= top
    key += group
    del group
    return np.argsort(key, kind="stable")


def _write_runs(out, runs, rows, sign) -> None:
    """Write the points of runs, the records that _Runs.records gathers for
    runs in order of point count, longest first, into out: point j of a
    half-track goes to row rows[track] + sign * j. The records' first steps
    and start points are overwritten, so they can be written only once.

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


def _long_enough(points, starts, counts, step_range, min_length: float) -> np.ndarray:
    """Arc length >= min_length for the raw tracks of counts points that
    start at rows starts of points, with exact lengths only for the tracks
    that the step-count bound of the module docstring leaves undecided."""
    low, high, slack = step_range
    segments = counts - 1  # every track holds its seed
    rel = 2 * (counts + 16) * 2.0**-53
    keep = segments * (low - slack) * (1.0 - rel) >= min_length
    unsure = np.flatnonzero(~keep & (segments * (high + slack) * (1.0 + rel) >= min_length))
    if unsure.size:
        keep[unsure] = _lengths(points, starts[unsure], counts[unsure]) >= min_length
    return keep


def _seeds_in_mask(field: OrientationField, mask: VoxelMask, seeds: SeedSet,
                   cfg: TrackingConfig) -> np.ndarray:
    """The seed points that lie in the mask (seeds.points itself, uncopied,
    when all do), the others counted in the log, once cfg and the field are
    checked against the mask."""
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
    return pts


def _raw_blocks(field: OrientationField, mask: VoxelMask, pts: np.ndarray, cfg: TrackingConfig):
    """The raw tracks of the seed points pts, which lie in the mask, that
    are at least cfg.min_length_mm long, in seed order: one (buf, starts,
    counts) per streamline.blocks range of the slots of each batch of seeds
    (module docstring), buf a float64 buffer that owns its memory and holds
    the block's slots, starts and counts the first rows and point counts of
    the tracks kept. Each kept track has a free row before and after it.
    The pass length (_pass_steps) and the batch size are set once per call.

    The generator keeps no reference to a buffer it has yielded, so a
    consumer can release it before the next block is drawn.
    """
    step_range = _step_range(mask, cfg)
    max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
    pass_steps = _pass_steps(field, mask, cfg)
    size = max(1, min(_BATCH, _BATCH_RUNS // sum(mask.dims)))
    fwd, bwd = _Runs(field, mask, cfg.step_mm), _Runs(field, mask, cfg.step_mm)
    for start in range(0, len(pts), size):
        batch = pts[start : start + size]
        idx = mask.world_to_index(batch)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        n_fwd = _propagate(field, mask, batch, v0, cfg, max_steps, pass_steps, fwd)
        n_bwd = _propagate(field, mask, batch, -v0, cfg, max_steps, pass_steps, bwd)
        offsets = _offsets(n_bwd + 3 + n_fwd)
        ranges = list(blocks(offsets))
        block = np.repeat(np.arange(len(ranges)), [hi - lo for lo, hi in ranges])
        # Each slot is a free row, the backward half reversed, the seed, the
        # forward half and a free row. The runs of tracks lo..hi-1 are
        # order[at[lo]:at[hi]] of their half's records.
        seed_rows = offsets[:-1] + 1 + n_bwd
        halves = []
        for runs, rows, sign in ((fwd, seed_rows + 1, 1), (bwd, seed_rows - 1, -1)):
            at = _offsets(np.bincount(runs.track[: runs.n], minlength=len(batch)))
            halves.append((runs, _sorted_runs(runs, block), at, rows, sign))
        for lo, hi in ranges:
            yield _raw_block(batch, offsets, seed_rows, halves, lo, hi, step_range,
                             cfg.min_length_mm)
        del halves  # the orders, before the next batch is propagated


def _raw_block(batch, offsets, seed_rows, halves, lo, hi, step_range, min_length):
    """_raw_blocks' (buf, starts, counts) for tracks lo..hi-1 of a batch
    whose slots offsets pack: their seeds and runs written into a new
    buffer of the slots, and the first rows and point counts of the tracks
    at least min_length long."""
    base = offsets[lo]
    buf = np.empty((offsets[hi] - base, 3))
    buf[seed_rows[lo:hi] - base] = batch[lo:hi]
    # The block's runs are gathered (_Runs.records, 72 bytes per run) at most
    # _RUN_BYTES // 24 at a time; each slice of them is still longest first.
    step = _RUN_BYTES // 24
    for runs, order, at, rows, sign in halves:
        rows = rows - base
        for a in range(at[lo], at[hi], step):
            _write_runs(buf, runs.records(order[a : min(a + step, at[hi])]), rows, sign)
    starts, counts = offsets[lo:hi] + 1 - base, np.diff(offsets[lo : hi + 1]) - 2
    keep = _long_enough(buf, starts, counts, step_range, min_length)
    return buf, starts[keep], counts[keep]


def _fit_cubic(points: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Least-squares cubic fit of one (n, 3) track, n >= 5, sampled back at
    its own parameter values: design is np.vander(np.linspace(0, 1, n), 4,
    increasing=True), which the tracks of one length share. Each track
    still gets its own lstsq call: a solve with many right-hand sides
    rounds differently.
    """
    if len(points) < 5:
        raise DegenerateGeometryError("cubic fit needs at least 5 points")
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


def _surface_exits(points: np.ndarray, starts: np.ndarray, counts: np.ndarray, mask: VoxelMask,
                   cfg: TrackingConfig):
    """Where both terminal tangents of every track, counts points from row
    starts of points, leave the mask.

    Returns (exits, extend, accepted, ran_away): exits (n, 2, 3) holds the
    exit points beyond the first and the last point, and extend (n, 2) marks
    those that lie more than 1e-12 mm out. accepted is False where a tangent
    ran away (no exit within twice the mask diagonal; such a track is not
    extended) or where the added length exceeds cfg.max_extrap_fraction of
    the track's arc length.
    """
    first, last = starts, starts + counts - 1
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
    span = points[last] - points[first]
    chord = np.sqrt((span * span).sum(axis=1))
    rel = 2 * (counts + 16) * 2.0**-53
    accepted = ~ran_away & (added <= cfg.max_extrap_fraction * chord * (1.0 - rel))
    unsure = np.flatnonzero(~ran_away & ~accepted)
    if unsure.size:
        lengths = _lengths(points, first[unsure], counts[unsure])
        accepted[unsure] = added[unsure] <= cfg.max_extrap_fraction * lengths
    return exits, extend, accepted, ran_away


def _with_exits(buf, starts, counts, exits, extend, rows) -> np.ndarray:
    """Move the tracks at rows (ascending), counts points from row starts
    of buf, to the front of buf with the exit points that extend marks,
    each written into its slot's free row, and shrink buf to them; returns
    their point counts. Every track moves towards the front, so the pass
    runs first to last and overwrites no track it has yet to move."""
    head, tail = extend[rows, 0], extend[rows, 1]
    starts, counts = starts[rows] - head, counts[rows] + head + tail
    buf[starts[head]] = exits[rows[head], 0]
    buf[(starts + counts - 1)[tail]] = exits[rows[tail], 1]
    packed = np.cumsum(counts) - counts
    for src, dst, n in zip(starts.tolist(), packed.tolist(), counts.tolist()):
        if src != dst:
            buf[dst : dst + n] = buf[src : src + n]
    buf.resize((int(counts.sum()), 3), refcheck=False)
    return counts


def _finish(buf: np.ndarray, starts: np.ndarray, counts: np.ndarray, mask: VoxelMask,
            cfg: TrackingConfig, tally: np.ndarray) -> np.ndarray:
    """Fit and extend the raw tracks of buf, counts points from row starts,
    in place, and pack the accepted ones with their exit points to the front
    of buf, which then ends at the last of them (_with_exits). Returns their
    point counts, and adds the tracks, fits skipped, extrapolations rejected
    and run-aways to tally."""
    unfitted = 0
    for c, rows in _by_count(counts):
        if c < 5:
            unfitted += len(rows)
            continue
        design = np.vander(np.linspace(0.0, 1.0, c), 4, increasing=True)
        for a in starts[rows].tolist():
            buf[a : a + c] = _fit_cubic(buf[a : a + c], design)
    exits, extend, accepted, ran_away = _surface_exits(buf, starts, counts, mask, cfg)
    n_tracks = len(counts)
    counts = _with_exits(buf, starts, counts, exits, extend, np.flatnonzero(accepted))
    tally += (n_tracks, unfitted, n_tracks - len(counts), int(ran_away.sum()))
    return counts


def reconstruct_batches(
    field: OrientationField,
    mask: VoxelMask,
    seeds: SeedSet,
    cfg: TrackingConfig | None = None,
):
    """Full per-seed reconstruction: track, cubic-fit, extrapolate, filter.
    Yields float64 sets, in seed order, one per streamline.blocks range of
    the raw tracks of each batch of seeds, and logs one INFO line with what
    each stage dropped after the last set. A batch holds min(_BATCH,
    _BATCH_RUNS // (nx + ny + nz)) seeds of an nx x ny x nz mask, and every
    propagation pass computes the steps of the longest chord that a usable
    field direction runs inside one voxel (_pass_steps), both set once per
    call; neither changes a bit of the output.

    This is the pipeline order used ahead of any filtering: smoothing and
    endpoint extrapolation happen before streamlines are sampled or
    compared. Seeds outside the mask are skipped (counted in the log, not
    fatal). cfg.step_mm must not exceed the mask diagonal: a longer step
    takes every point off the grid, so no track could hold two points. The
    size of the output is not checked: a track holds about one point per
    step_mm of its length, and a tiny step_mm can make even one track need
    more memory than the host has.

    Each block's raw tracks are fitted, extended and filtered in place in
    the buffer they were written to. The sets are valid at float64 by
    construction (module docstring) and are not validated here: the STRL
    writer validates the float32 rounding it makes. When the next set is
    drawn, the last set's points become empty and its buffer is released,
    so a caller that keeps a set longer copies it (StreamlineSet.take). So
    besides one block, the memory held is the voxel-run records that one
    batch makes, in stores that the call allocates once and every batch
    reuses, at 56 bytes per run of the batch with the most runs (module
    docstring, "Memory"), whatever the number of seeds: at most _BATCH_RUNS
    runs for straight fibres, which it only estimates for curved ones (a
    view that the caller keeps keeps its buffer).
    """
    cfg = cfg or TrackingConfig()
    pts = _seeds_in_mask(field, mask, seeds, cfg)
    tally = np.zeros(4, dtype=np.int64)  # tracks, fits skipped, rejected, ran away
    for buf, starts, counts in _raw_blocks(field, mask, pts, cfg):
        counts = _finish(buf, starts, counts, mask, cfg, tally)
        sset = StreamlineSet._trusted(buf, _offsets(counts))
        yield sset
        # Shrunk in place, unless a view the caller took still needs it: to
        # free it would raise the allocator's mmap threshold, and peak RSS.
        sset.points = np.empty((0, 3))
        with contextlib.suppress(ValueError):
            buf.resize((0, 3))

    n_tracks, unfitted, rejected, away = tally.tolist()
    log.info(
        "reconstruct: %d seeds, %d outside the mask; %d tracks under min_length_mm; "
        "%d fits skipped (< 5 points); %d extrapolations rejected (%d ran away, "
        "%d over max_extrap_fraction); %d streamlines",
        len(seeds), len(seeds) - len(pts), len(pts) - n_tracks, unfitted,
        rejected, away, rejected - away, n_tracks - rejected,
    )
