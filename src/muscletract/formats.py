"""Binary file formats and the run-config parser.

All formats are little-endian with a 4-byte magic and a u32 version:

  STRL  streamlines: count u32, then per streamline npoints u32 followed by
        npoints * 3 float32 world-mm coordinates.
  MSKV  voxel mask: dims 3*u32, voxel_size 3*float32, origin 3*float32, then
        dims.x*dims.y*dims.z occupancy bytes {0,1}, x-fastest.
  ORNT  orientation field: MSKV header, payload 4*float32 per voxel
        (dir x, y, z, fa), x-fastest. Unit norm is validated where fa > 0.
  DENS  density volume: MSKV header, payload 1*float32 per voxel, x-fastest.

Round-trips are byte-exact: save(load(save(x))) writes identical bytes.

STRL records are read and written one streamline.blocks range at a time (at
most BLOCK_POINTS points, or one streamline that alone holds more), as one
buffer of interleaved count and coordinate words. So beside the points of the
set, STRL I/O holds under 30 bytes per point of one block: about 2 MB.

A run-config file holds flat key=value lines. Each key is a field of the
config that owns the parameter, which also holds its default and its check:

  TrackingConfig  step_mm, max_angle_deg, fa_min, min_length_mm,
                  max_extrap_fraction
  FSSConfig       k, m, init_rule
  RunConfig       n_candidates, spacing_mm, n_slices, r2_threshold,
                  sdcv_support

Each value has one check, in its owner, whether it came from a file or a
flag: TrackingConfig, FSSConfig and n_candidates check theirs when a config
is built, and spacing_mm, n_slices, r2_threshold and sdcv_support are checked
by the library function that uses them (seeds_3d, seeds_2d, line_of_action,
density). So a file with sdcv_support=bogus serves `track`, which never uses
it, and `metrics` exits 3 naming the key. Loading a file adds k <= n_candidates.
max_angle_deg must lie in (0, 180]: the gate compares cosines, so a larger
angle would wrap (1000 would gate at 80).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .architecture import R2_THRESHOLD_DEFAULT
from .errors import ConfigError, FormatError, InvalidSpecError
from .grid import OrientationField, VoxelMask
from .metrics import DensityMap
from .sampling import FSSConfig
from .streamline import StreamlineSet, blocks
from .tracking import TrackingConfig

FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
# Bytes of a STRL file that the first pass of load_streamlines reads at a time.
_HEAD_BYTES = 1 << 16


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _read_header(fh, magic: bytes, path) -> None:
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise FormatError(f"{path}: expected magic {magic!r}, got {got!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")


def _record_words(offsets: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Where, among the 4-byte words of the records of streamlines lo..hi-1
    of a packed buffer in a STRL file, the point counts lie, and a mask of
    the other words, which hold the coordinates in order."""
    base = offsets[lo]
    heads = 3 * (offsets[lo:hi] - base) + np.arange(hi - lo)
    coords = np.ones(3 * (offsets[hi] - base) + hi - lo, dtype=bool)
    coords[heads] = False
    return heads, coords


def save_streamlines(path, sset: StreamlineSet) -> None:
    offsets = sset.offsets
    with open(path, "wb") as fh:
        fh.write(b"STRL")
        fh.write(struct.pack("<II", FORMAT_VERSION, len(sset)))
        for lo, hi in blocks(offsets):
            heads, coords = _record_words(offsets, lo, hi)
            words = np.empty(len(coords), dtype="<f4")
            words.view("<u4")[heads] = offsets[lo + 1 : hi + 1] - offsets[lo:hi]
            words[coords] = sset.points[offsets[lo] : offsets[hi]].reshape(-1)
            fh.write(words)


def load_streamlines(path) -> StreamlineSet:
    """Load streamlines; ids are assigned by file order.

    A first pass checks the point counts, reading _HEAD_BYTES of the file at
    a time; the records are then read one block at a time (module docstring)
    into one float64 buffer.
    """
    with open(path, "rb") as fh:
        _read_header(fh, b"STRL", path)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "count"))
        fd, start = fh.fileno(), fh.tell()
        size = os.fstat(fd).st_size
        counts, pos = [], start
        chunk, at = b"", start  # chunk holds the bytes of the file from at on
        for i in range(count):
            if pos + 4 > at + len(chunk):
                chunk, at = os.pread(fd, _HEAD_BYTES, pos), pos
                if len(chunk) < 4:
                    raise FormatError("truncated file while reading npoints")
            (npoints,) = _U32.unpack_from(chunk, pos - at)
            if npoints < 2:
                raise FormatError(f"{path}: streamline {i} has {npoints} points")
            pos += 4 + 12 * npoints
            if pos > size:
                raise FormatError(f"truncated file while reading streamline {i}")
            counts.append(npoints)
        if pos < size:
            raise FormatError(f"{path}: trailing bytes after {count} streamlines")

        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        points = np.empty((offsets[-1], 3))
        for lo, hi in blocks(offsets):
            _, coords = _record_words(offsets, lo, hi)
            words = np.empty(len(coords), dtype="<f4")
            fh.seek(start + 4 * (lo + 3 * offsets[lo]))
            if fh.readinto(words) != words.nbytes:
                raise FormatError(f"truncated file while reading streamline {lo}")
            points[offsets[lo] : offsets[hi]] = words[coords].reshape(-1, 3)
    return StreamlineSet(points, counts)


def _write_grid_header(fh, magic: bytes, dims, voxel_size, origin) -> None:
    fh.write(magic)
    fh.write(struct.pack("<I", FORMAT_VERSION))
    fh.write(np.asarray(dims, dtype="<u4").tobytes())
    fh.write(np.asarray(voxel_size, dtype="<f4").tobytes())
    fh.write(np.asarray(origin, dtype="<f4").tobytes())


def _read_grid_header(fh, magic: bytes, path):
    _read_header(fh, magic, path)
    dims = np.frombuffer(_read_exact(fh, 12, "dims"), dtype="<u4").astype(int)
    voxel_size = np.frombuffer(_read_exact(fh, 12, "voxel_size"), dtype="<f4").astype(np.float64)
    origin = np.frombuffer(_read_exact(fh, 12, "origin"), dtype="<f4").astype(np.float64)
    if (dims <= 0).any():
        raise FormatError(f"{path}: non-positive dims {tuple(dims)}")
    return tuple(int(d) for d in dims), voxel_size, origin


def _x_fastest(grid: np.ndarray) -> np.ndarray:
    # Voxel (x, y, z) at flat index x + nx*(y + ny*z); per-voxel channels stay contiguous.
    if grid.ndim == 3:
        return grid.transpose(2, 1, 0).reshape(-1)
    return grid.transpose(2, 1, 0, 3).reshape(-1, grid.shape[3])


def _from_x_fastest(flat: np.ndarray, dims, channels: int = 0) -> np.ndarray:
    nx, ny, nz = dims
    if channels:
        return flat.reshape(nz, ny, nx, channels).transpose(2, 1, 0, 3)
    return flat.reshape(nz, ny, nx).transpose(2, 1, 0)


def save_mask(path, mask: VoxelMask) -> None:
    with open(path, "wb") as fh:
        _write_grid_header(fh, b"MSKV", mask.dims, mask.voxel_size, mask.origin)
        fh.write(_x_fastest(mask.occupancy.astype(np.uint8)).tobytes())


def load_mask(path) -> VoxelMask:
    with open(path, "rb") as fh:
        dims, voxel_size, origin = _read_grid_header(fh, b"MSKV", path)
        n = dims[0] * dims[1] * dims[2]
        raw = np.frombuffer(_read_exact(fh, n, "occupancy"), dtype=np.uint8)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes")
    if not np.isin(raw, (0, 1)).all():
        raise FormatError(f"{path}: occupancy bytes must be 0 or 1")
    occ = _from_x_fastest(raw, dims).astype(bool)
    return VoxelMask(occ, voxel_size, origin)


def save_field(path, field: OrientationField) -> None:
    payload = np.concatenate([field.directions, field.fa[..., None]], axis=3)
    with open(path, "wb") as fh:
        _write_grid_header(fh, b"ORNT", field.dims, field.voxel_size, field.origin)
        fh.write(np.ascontiguousarray(_x_fastest(payload), dtype="<f4").tobytes())


def load_field(path) -> OrientationField:
    with open(path, "rb") as fh:
        dims, voxel_size, origin = _read_grid_header(fh, b"ORNT", path)
        n = dims[0] * dims[1] * dims[2] * 4
        raw = np.frombuffer(_read_exact(fh, n * 4, "field payload"), dtype="<f4")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes")
    grid = _from_x_fastest(raw.astype(np.float64), dims, channels=4)
    directions = grid[..., :3]
    fa = grid[..., 3]
    active = fa > 0
    if active.any():
        norms = np.linalg.norm(directions[active], axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if not worst <= 1e-4:  # NaN fails
            raise FormatError(f"{path}: non-unit directions where fa > 0 (worst {worst:.3g})")
        if worst > 5e-7:
            # Foreign writers may carry only file-level precision; our own
            # float32 output stays below this and round-trips untouched.
            directions = directions.copy()
            directions[active] /= norms[:, None]
    return OrientationField(directions, fa, voxel_size, origin)


def save_density(path, dmap: DensityMap, normalized: bool = False) -> None:
    data = dmap.normalized() if normalized else dmap.counts.astype(np.float64)
    with open(path, "wb") as fh:
        _write_grid_header(fh, b"DENS", dmap.counts.shape, dmap.voxel_size, dmap.origin)
        fh.write(np.ascontiguousarray(_x_fastest(data), dtype="<f4").tobytes())


def load_density(path) -> DensityMap:
    with open(path, "rb") as fh:
        dims, voxel_size, origin = _read_grid_header(fh, b"DENS", path)
        n = dims[0] * dims[1] * dims[2]
        raw = np.frombuffer(_read_exact(fh, n * 4, "density payload"), dtype="<f4")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes")
    return DensityMap(_from_x_fastest(raw.astype(np.float64), dims), voxel_size, origin)


def fmt_float(x: float) -> str:
    """Floats in CSV output carry 9 significant digits."""
    return f"{x:.9g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [fmt_float(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


@dataclass
class RunConfig:
    """The tracking and FSS configs plus the five run parameters that no
    library config owns. The library functions that take spacing_mm,
    n_slices, r2_threshold and sdcv_support check them."""

    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    fss: FSSConfig = field(default_factory=FSSConfig)
    n_candidates: int = 10000
    spacing_mm: float = 1.0
    n_slices: int = 5
    r2_threshold: float = R2_THRESHOLD_DEFAULT
    sdcv_support: str = "all"

    def __post_init__(self):
        if not self.n_candidates >= 1:
            raise InvalidSpecError(f"n_candidates must be positive, got {self.n_candidates}")

    def updated(self, values: dict) -> RunConfig:
        """A copy with the run parameters in values replaced, each checked by its owner."""
        def owned_by(owner):
            return {key: v for key, v in values.items() if RUN_KEYS[key][0] is owner}

        return replace(
            self,
            tracking=replace(self.tracking, **owned_by(TrackingConfig)),
            fss=replace(self.fss, **owned_by(FSSConfig)),
            **owned_by(RunConfig),
        )


# Run-config key -> (the config that declares it, its value type).
RUN_KEYS: dict[str, tuple[type, type]] = {
    f.name: (owner, type(f.default))
    for owner in (TrackingConfig, FSSConfig, RunConfig)
    for f in fields(owner)
    if f.name not in ("tracking", "fss")
}


def key_value_lines(path, expected: str = "key=value"):
    """(line number, key, value) of every key=value line of a text file.

    '#' starts a comment, blank lines are skipped, and each line splits at
    its first '='; key and value are stripped. A line without '=' raises
    ConfigError naming path:line and the expected form.
    """
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected {expected}, got {line!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        yield lineno, key, value


def load_run_config(path) -> RunConfig:
    """Parse a run-config file of key=value lines (key_value_lines). Values
    the owning config rejects, and k > n_candidates, raise ConfigError."""
    values = {}
    for lineno, key, value in key_value_lines(path):
        if key not in RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = RUN_KEYS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    try:
        cfg = RunConfig().updated(values)
    except InvalidSpecError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if cfg.fss.k > cfg.n_candidates:
        raise ConfigError(f"{path}: k cannot exceed n_candidates")
    return cfg
