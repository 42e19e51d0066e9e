"""Synthetic muscle phantoms with analytically known fiber architecture.

Three shapes are provided. box_unipennate fills a cuboid with parallel fibers
at a fixed angle to the long (z) axis in the x-z plane. fusiform fills an
ellipsoid with fibers that follow the long axis and converge toward the poles.
curved_arc fills an annular sector with fibers along concentric circular arcs,
giving built-in fiber-length heterogeneity (length proportional to radius).

Each phantom ships a GroundTruth record: the analytic fiber length, pennation
angle, line-of-action direction, and solid volume used by the validation tests.
Every voxel inside the muscle has anisotropy FA_INSIDE, every voxel outside
it 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .grid import OrientationField, VoxelMask

SHAPES = ("box_unipennate", "fusiform", "curved_arc")
FA_INSIDE = 0.5
# Most voxels a phantom grid may have: 145 times the 40 x 24 x 120 box. A
# jittered box, the largest case, peaks at 184 bytes per voxel in
# make_phantom (tracemalloc; 98 unjittered, 121 fusiform, 114 arc), so about
# 3.1 GB at this bound.
MAX_VOXELS = 2**24


@dataclass
class PhantomSpec:
    shape: str = "box_unipennate"
    pennation_deg: float = 10.0
    dims_mm: tuple[float, float, float] = (20.0, 12.0, 60.0)
    voxel_mm: float = 1.0
    arc_radius_mm: float = 30.0
    arc_sweep_deg: float = 90.0
    arc_thickness_mm: float = 10.0
    jitter_deg: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Comparisons are written so that NaN and inf fail them.
        if self.shape not in SHAPES:
            raise InvalidSpecError(f"unknown phantom shape {self.shape!r}")
        if not 0.0 <= self.pennation_deg < 90.0:
            raise InvalidSpecError("pennation_deg must be in [0, 90) degrees")
        if not all(0 < d < math.inf for d in self.dims_mm):
            raise InvalidSpecError("dims_mm must be positive and finite")
        if not 0 < self.voxel_mm < math.inf:
            raise InvalidSpecError("voxel_mm must be positive and finite")
        if self.shape == "curved_arc":
            if not 0 < self.arc_thickness_mm < math.inf:
                raise InvalidSpecError("arc_thickness_mm must be positive and finite")
            if not 0 < self.arc_radius_mm - self.arc_thickness_mm / 2 < math.inf:
                raise InvalidSpecError("arc_radius_mm must be finite and exceed half the thickness")
            if not 0 < self.arc_sweep_deg <= 350:
                raise InvalidSpecError("arc_sweep_deg must be in (0, 350] degrees")
        if not 0 <= self.jitter_deg < math.inf:
            raise InvalidSpecError("jitter_deg must be non-negative and finite")


@dataclass
class GroundTruth:
    """Analytic fiber length / pennation / line of action / volume."""

    fiber_length_mm: float
    pennation_deg: float
    line_of_action: np.ndarray
    volume_mm3: float


def box_fiber_length_median(width: float, length: float, pennation_deg: float) -> float:
    """Median tracked fiber length in a unipennate box under uniform seeding.

    Fibers run at the pennation angle θ to z in the x-z plane. Seeds land on a
    fiber in proportion to its length, so the median is over the
    length-weighted fiber family. Over the box's length a fiber moves L·tanθ
    in x; let a = min(w, L·tanθ) and b = max(w, L·tanθ). Along the fibers' x
    offset, their length is a plateau of height top (L/cosθ when a = L·tanθ,
    w/sinθ when a = w) and width b - a, between two linear ramps of width a
    whose fibers the x walls clip short. The ramps' fibers no longer than
    m ≤ top weigh tanθ·cosθ·m² together, and tanθ·cosθ·top = a, so the family
    weighs a·top + (b - a)·top = b·top. Half of that lies below
    m = top·sqrt(b / (2a)); when that exceeds top, the plateau holds the
    median, top.
    """
    theta = math.radians(pennation_deg)
    run = length * math.tan(theta)
    if run == 0.0:
        return length
    if run <= width:
        a, b, top = run, width, length / math.cos(theta)
    else:
        a, b, top = width, run, width / math.sin(theta)
    return top * min(1.0, math.sqrt(b / (2.0 * a)))


def _grid_for(dims_mm, voxel: float):
    """The grid dims of a phantom, checked against MAX_VOXELS before its
    maker allocates the grid. They are counted in floats first, where a size
    past the float range is inf rather than an OverflowError."""
    sizes = np.ceil([float(d) / float(voxel) for d in dims_mm]).tolist()
    count = math.prod(sizes)
    if not count <= MAX_VOXELS:
        raise InvalidSpecError(f"phantom grid {' x '.join(f'{s:.0f}' for s in sizes)} at "
                               f"voxel_mm={voxel} has {count:.3g} voxels, more than {MAX_VOXELS}")
    return tuple(int(s) for s in sizes)


def _voxel_centers(dims, voxel: float):
    ax = [(np.arange(n) + 0.5) * voxel for n in dims]
    return np.meshgrid(*ax, indexing="ij")


def _apply_jitter(directions: np.ndarray, active: np.ndarray, jitter_deg: float, seed: int):
    rng = np.random.default_rng(seed)
    v = directions[active]
    n = len(v)
    raw = rng.normal(size=(n, 3))
    perp = raw - (raw * v).sum(axis=1, keepdims=True) * v
    norms = np.linalg.norm(perp, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    perp /= norms
    alpha = rng.normal(scale=math.radians(jitter_deg), size=(n, 1))
    out = v * np.cos(alpha) + perp * np.sin(alpha)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    directions[active] = out


def make_phantom(spec: PhantomSpec) -> tuple[VoxelMask, OrientationField, GroundTruth]:
    """Build the voxel mask, orientation field, and ground truth for a spec.

    Each shape's maker returns its occupancy, its unit directions (which may
    be anything outside the occupancy) and its truth; the rest is shared.
    """
    make = {"box_unipennate": _make_box, "fusiform": _make_fusiform, "curved_arc": _make_arc}
    occ, directions, truth = make[spec.shape](spec)
    if not occ.any():
        raise InvalidSpecError(f"{spec.shape} phantom covers no voxel of its {occ.shape} grid "
                               f"at voxel_mm={spec.voxel_mm}")
    directions[~occ] = 0.0
    if spec.jitter_deg > 0:
        _apply_jitter(directions, occ, spec.jitter_deg, spec.seed)
    fa = np.where(occ, FA_INSIDE, 0.0)
    mask = VoxelMask(occ, spec.voxel_mm, 0.0)
    return mask, OrientationField(directions, fa, spec.voxel_mm, 0.0), truth


def _make_box(spec: PhantomSpec):
    w, h, length = spec.dims_mm
    dims = _grid_for(spec.dims_mm, spec.voxel_mm)
    theta = math.radians(spec.pennation_deg)
    direction = np.array([math.sin(theta), 0.0, math.cos(theta)])
    truth = GroundTruth(
        fiber_length_mm=box_fiber_length_median(w, length, spec.pennation_deg),
        pennation_deg=spec.pennation_deg,
        line_of_action=np.array([0.0, 0.0, 1.0]),
        volume_mm3=w * h * length,
    )
    return np.ones(dims, dtype=bool), np.broadcast_to(direction, dims + (3,)).copy(), truth


def _make_fusiform(spec: PhantomSpec):
    a, b, c = (d / 2.0 for d in spec.dims_mm)
    dims = _grid_for(spec.dims_mm, spec.voxel_mm)
    x, y, z = _voxel_centers(dims, spec.voxel_mm)
    cx, cy, cz = (n * spec.voxel_mm / 2.0 for n in dims)
    xt, yt, zt = x - cx, y - cy, z - cz
    occ = (xt / a) ** 2 + (yt / b) ** 2 + (zt / c) ** 2 <= 1.0

    # Fibers are scaled meridians (x0*g(z), y0*g(z), z) with g = sqrt(1-(z/c)^2);
    # the tangent direction at a voxel depends only on its position.
    q = -zt / np.maximum(c * c - zt * zt, 1e-9 * c * c)
    directions = np.stack([xt * q, yt * q, np.ones_like(zt)], axis=-1)
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    truth = GroundTruth(
        fiber_length_mm=2.0 * c,
        pennation_deg=0.0,
        line_of_action=np.array([0.0, 0.0, 1.0]),
        volume_mm3=4.0 / 3.0 * math.pi * a * b * c,
    )
    return occ, directions, truth


def _make_arc(spec: PhantomSpec):
    sweep = math.radians(spec.arc_sweep_deg)
    r_mid = spec.arc_radius_mm
    r_in = r_mid - spec.arc_thickness_mm / 2.0
    r_out = r_mid + spec.arc_thickness_mm / 2.0
    height = spec.dims_mm[1]

    # Arc center sits so the sector plus a one-voxel margin fits the grid.
    phis = np.linspace(0.0, sweep, 512)
    ca, sa = np.cos(phis), np.sin(phis)
    xs = np.concatenate([r_in * ca, r_out * ca])
    zs = np.concatenate([r_in * sa, r_out * sa])
    margin = spec.voxel_mm
    center = np.array([margin - xs.min(), 0.0, margin - zs.min()])
    size_x = xs.max() - xs.min() + 2 * margin
    size_z = zs.max() - zs.min() + 2 * margin
    dims = _grid_for((size_x, height, size_z), spec.voxel_mm)

    x, y, z = _voxel_centers(dims, spec.voxel_mm)
    rx, rz = x - center[0], z - center[2]
    rho = np.hypot(rx, rz)
    phi = np.mod(np.arctan2(rz, rx), 2.0 * math.pi)
    occ = (rho >= r_in) & (rho <= r_out) & (phi <= sweep) & (y >= 0) & (y <= height)
    safe_rho = np.maximum(rho, 1e-9)
    directions = np.stack([-rz / safe_rho, np.zeros_like(rho), rx / safe_rho], axis=-1)

    chord = np.array([math.cos(sweep) - 1.0, 0.0, math.sin(sweep)])
    norm = np.linalg.norm(chord)
    chord = chord / norm if norm > 0 else np.array([0.0, 0.0, 1.0])
    truth = GroundTruth(
        fiber_length_mm=sweep * r_mid,
        pennation_deg=0.0,
        line_of_action=chord,
        volume_mm3=sweep / 2.0 * (r_out**2 - r_in**2) * height,
    )
    return occ, directions, truth
