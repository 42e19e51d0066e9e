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


# Upper bound on the bytes of the points one propagation pass computes ahead.
_RUN_BYTES = 1 << 22


def _propagate(field, mask, starts, init_dirs, cfg, max_steps):
    """March one half-track per seed; returns per-seed point arrays (seed excluded).

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
    dims = np.asarray(mask.dims)
    origin, vs = mask.origin[:, None], mask.voxel_size[:, None]
    per_voxel = int(math.ceil(float(np.linalg.norm(mask.voxel_size)) / cfg.step_mm)) + 1
    run = max(1, min(max_steps, per_voxel, _RUN_BYTES // (24 * max(n, 1))))
    offsets = np.arange(run)[:, None]

    while active.size:
        m = len(active)
        here = p[active]
        idx = np.floor((here - mask.origin) / mask.voxel_size).astype(np.int64)
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
        qidx = np.floor((q - origin) / vs).astype(np.int64)
        moved = qidx != idx.T
        left = moved[:, 0] | moved[:, 1] | moved[:, 2]
        cross = np.where(left.any(axis=0), left.argmax(axis=0), run)

        # The step that leaves the voxel, if the run gets that far.
        exits = np.flatnonzero(alive & (cross < limit))
        nidx = qidx[cross[exits], :, exits]
        in_grid = ((nidx >= 0) & (nidx < dims)).all(axis=1)
        safe = np.clip(nidx, 0, dims - 1)
        entered = np.zeros(m, dtype=bool)
        entered[exits] = in_grid & mask.occupancy[safe[:, 0], safe[:, 1], safe[:, 2]]

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
    out = _fit_cubic(s.points, {})
    if polyline_length(s.points) <= 0.0:
        raise DegenerateGeometryError("cannot fit near-coincident points")
    resid = out - s.points
    rms = float(np.sqrt((resid * resid).sum(axis=1).mean()))
    return Streamline(out, id=s.id), rms


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

    dims = np.asarray(mask.dims)
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
        moved = idx[rows, a]
        safe = np.clip(idx[rows], 0, dims - 1)
        stay = (moved >= 0) & (moved < dims[a])
        stay &= mask.occupancy[safe[:, 0], safe[:, 1], safe[:, 2]]
        tau[active[rows[~stay]]] = np.where(0.0 > t[~stay], 0.0, t[~stay])
        rows, a = rows[stay], a[stay]
        t_max[rows, a] += t_delta[rows, a]
    return tau


def _surface_exits(tracks, mask: VoxelMask, cfg: TrackingConfig):
    """Where both terminal tangents of every track leave the mask.

    Returns (exits, extend, accepted, ran_away): exits (n, 2, 3) holds the
    exit points beyond the first and the last point, and extend (n, 2) marks
    those that lie more than 1e-12 mm out. accepted is False where a tangent
    ran away (no exit within twice the mask diagonal; such a track is not
    extended) or where the added length exceeds cfg.max_extrap_fraction of
    the track's arc length.
    """
    anchors = np.array([(p[0], p[-1]) for p in tracks]).reshape(-1, 3)
    d = anchors - np.array([(p[1], p[-2]) for p in tracks]).reshape(-1, 3)
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
    lengths = np.array([polyline_length(p) for p in tracks])
    accepted = ~ran_away & (added[:, 0] + added[:, 1] <= cfg.max_extrap_fraction * lengths)
    return exits, extend, accepted, ran_away


def _extended(points: np.ndarray, exits: np.ndarray, extend: np.ndarray) -> np.ndarray:
    """points with the exit point of each end marked in extend added."""
    pieces = [points]
    if extend[0]:
        pieces.insert(0, exits[:1])
    if extend[1]:
        pieces.append(exits[1:])
    return np.concatenate(pieces) if len(pieces) > 1 else points


def extrapolate_to_surface(
    s: Streamline, mask: VoxelMask, cfg: TrackingConfig | None = None
) -> tuple[Streamline, bool]:
    """Extend both endpoints along their terminal tangents to the mask surface.

    Returns (streamline, accepted); accepted is False when the total added
    length exceeds cfg.max_extrap_fraction of the original arc length, or when
    a tangent fails to exit the mask within twice its diagonal.
    """
    cfg = cfg or TrackingConfig()
    exits, extend, accepted, _ = _surface_exits([s.points], mask, cfg)
    if extend.any():
        s = Streamline(_extended(s.points, exits[0], extend[0]), id=s.id)
    return s, bool(accepted[0])


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
    tracks = [s.points for s in track(field, mask, seeds, cfg)]
    # Each fit, and then each output, takes the place of the array it was
    # made from, so that the points are held about once, not once per stage.
    designs: dict = {}
    unfitted = 0
    for i, points in enumerate(tracks):
        if len(points) >= 5:
            tracks[i] = _fit_cubic(points, designs)
        else:
            unfitted += 1
    exits, extend, accepted, ran_away = _surface_exits(tracks, mask, cfg)
    out: list[Streamline] = []
    for i in np.flatnonzero(accepted):
        out.append(Streamline(_extended(tracks[i], exits[i], extend[i]), id=len(out)))
        tracks[i] = None

    n_in = int(mask.points_in_mask(seeds.points).sum())
    rejected, away = len(tracks) - len(out), int(ran_away.sum())
    log.info(
        "reconstruct: %d seeds, %d outside the mask; %d tracks under min_length_mm; "
        "%d fits skipped (< 5 points); %d extrapolations rejected (%d ran away, "
        "%d over max_extrap_fraction); %d streamlines",
        len(seeds), len(seeds) - n_in, n_in - len(tracks), unfitted,
        rejected, away, rejected - away, len(out),
    )
    return StreamlineSet(out, mask=mask)
