"""Axis-aligned voxel grids: occupancy masks and per-voxel orientation fields.

Grid convention: `origin` is the world coordinate of the minimum corner of
voxel (0, 0, 0); a world point p lies in voxel floor((p - origin) / voxel_size).
Voxel centers sit at origin + (index + 0.5) * voxel_size.

VoxelMask is the one home of that lookup: world_to_index applies the floor
rule and lookup is the one in-grid and occupancy test, for the tracker, the
extrapolation and the density metrics alike. The one exception is the
crossing test of tracking._propagate, its hottest loop, which floors a whole
run of steps at once and only compares the indices with the start voxel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, InvalidSpecError, NonUnitError

# Largest deviation from unit norm an OrientationField direction may have
# where fa > 0.
UNIT_TOL = 1e-6


def _vec3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=np.float64)
    if v.shape == ():
        v = np.full(3, float(v))
    if v.shape != (3,):
        raise InvalidSpecError(f"{name} must be a scalar or length-3 vector")
    if not np.isfinite(v).all():
        raise InvalidSpecError(f"{name} must be finite")
    return v


def _voxel_size(value) -> np.ndarray:
    v = _vec3(value, "voxel_size")
    if (v <= 0).any():
        raise InvalidSpecError("voxel_size must be positive")
    return v


@dataclass
class VoxelMask:
    """Boolean occupancy over a regular grid; defines muscle extent."""

    occupancy: np.ndarray
    voxel_size: np.ndarray = 1.0
    origin: np.ndarray = 0.0

    def __post_init__(self):
        occ = np.asarray(self.occupancy)
        if occ.ndim != 3:
            raise InvalidSpecError("occupancy must be a 3D array")
        # C order, so that lookup reads it flat without a copy.
        self.occupancy = np.ascontiguousarray(occ, dtype=bool)
        self.voxel_size = _voxel_size(self.voxel_size)
        self.origin = _vec3(self.origin, "origin")
        if min(occ.shape) < 1:
            raise InvalidSpecError("grid dims must be positive")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    @property
    def n_occupied(self) -> int:
        return int(self.occupancy.sum())

    @property
    def voxel_volume(self) -> float:
        return float(np.prod(self.voxel_size))

    @property
    def world_extent(self) -> np.ndarray:
        return np.asarray(self.dims) * self.voxel_size

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.world_extent))

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """The voxel index triple of each world point (the grid convention)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.floor((pts - self.origin) / self.voxel_size).astype(np.int64)

    def lookup(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flat, hit) for an (n, 3) array of index triples: flat is each
        triple's flat C-order voxel index (0 where it lies off the grid), and
        hit is True where the triple is in-grid and occupied."""
        idx = np.asarray(idx, dtype=np.int64)
        dims = self.dims
        # Negative indices wrap to huge unsigned ones, so one test bounds both sides.
        ok = idx.view(np.uint64) < np.asarray(dims, dtype=np.uint64)
        inside = ok[:, 0] & ok[:, 1] & ok[:, 2]
        flat = np.where(inside, (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2], 0)
        return flat, inside & self.occupancy.reshape(-1)[flat]

    def indices_occupied(self, idx: np.ndarray) -> np.ndarray:
        """True where an index triple is in-grid and occupied."""
        return self.lookup(np.atleast_2d(idx))[1]

    def points_in_mask(self, points: np.ndarray) -> np.ndarray:
        return self.indices_occupied(self.world_to_index(points))

    def voxel_centers(self, idx: np.ndarray) -> np.ndarray:
        idx = np.atleast_2d(idx)
        return self.origin + (idx + 0.5) * self.voxel_size

    def occupied_indices(self) -> np.ndarray:
        return np.argwhere(self.occupancy)

    def same_frame(self, other) -> bool:
        return (
            self.dims == tuple(other.dims)
            and np.array_equal(self.voxel_size, other.voxel_size)
            and np.array_equal(self.origin, other.origin)
        )

    def require_same_frame(self, other, what: str = "input") -> None:
        if not self.same_frame(other):
            raise FrameMismatchError(
                f"{what} grid (dims {tuple(other.dims)}) does not match mask grid {self.dims}"
            )


@dataclass
class OrientationField:
    """Per-voxel unit direction and scalar anisotropy on the same grid as a mask.

    Directions are unsigned fiber axes; the tracker sign-aligns them step by
    step. Unit norm (UNIT_TOL) is required wherever fa > 0; validate_units
    raises NonUnitError, with the norms it computed, where it is not.
    """

    directions: np.ndarray
    fa: np.ndarray
    voxel_size: np.ndarray = 1.0
    origin: np.ndarray = 0.0

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        f = np.asarray(self.fa, dtype=np.float64)
        if d.ndim != 4 or d.shape[3] != 3:
            raise InvalidSpecError("directions must have shape (nx, ny, nz, 3)")
        if f.shape != d.shape[:3]:
            raise InvalidSpecError("fa grid must match directions grid")
        if not np.isfinite(f).all():
            raise InvalidSpecError("fa must be finite")
        self.directions = d
        self.fa = f
        self.voxel_size = _voxel_size(self.voxel_size)
        self.origin = _vec3(self.origin, "origin")
        self.validate_units()

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.fa.shape

    def validate_units(self) -> None:
        active = self.fa > 0
        if active.any():
            norms = np.linalg.norm(self.directions[active], axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if not worst <= UNIT_TOL:  # NaN fails
                raise NonUnitError(norms, worst)
