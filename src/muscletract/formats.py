"""Binary file formats and the run-config parser.

All formats are little-endian with a 4-byte magic and a u32 version:

  STRL  streamlines: count u32, then per streamline npoints u32 followed by
        npoints * 3 float32 world-mm coordinates.
  MSKV  voxel mask: dims 3*u32, voxel_size 3*float32, origin 3*float32, then
        dims.x*dims.y*dims.z occupancy bytes {0,1}, x-fastest.
  ORNT  orientation field: MSKV header, payload 4*float32 per voxel
        (dir x, y, z, fa), x-fastest. Directions the field rejects as off
        unit norm where fa > 0 are renormalized if within 1e-4, else refused.
  DENS  density volume: MSKV header, payload 1*float32 per voxel, x-fastest.

The grid formats differ only in magic and payload: one writer (_save_grid)
and one reader (_load_grid) serve all three, and each loader adds its own
checks (occupancy bytes 0 or 1; the ORNT renormalization band).

Round-trips are byte-exact: save(load(save(x))) writes identical bytes.

A STRL file is the one place where streamline points are float32: the
sets that load_streamlines and StreamlineFile.sets return hold the float64
values of the file's words (streamline module docstring). Grid payloads and
headers are read as float64 too. Every float32 word is converted with the
invalid-operation flag ignored (streamline._float64): a signaling NaN
(0x7f800001) becomes a quiet NaN without a RuntimeWarning, and the finite
checks of the loaded object reject it with the same error as any other NaN
(InvalidStreamlineError for STRL coordinates, InvalidSpecError for a grid's
voxel_size, origin or fa, FormatError for a direction).

One STRL writer, save_streamlines, serves a set and a stream of sets, such
as the sets of tracking.reconstruct_batches: a header of count 0xFFFFFFFF,
the records of each set in turn, then the count patched in, so the file must
be seekable, and a write cut short leaves a file that fails to load rather
than one that loads as fewer streamlines. It is the one place where points
are rounded to float32: it validates the float32 rounding of each block
before it writes it, so it refuses exactly what the reader would reject
(InvalidStreamlineError), such as a step that float32 cannot resolve or a
coordinate beyond its range.

One STRL reader, StreamlineFile, checks the header and every point count
when it opens the file, then serves three readers of that one open file:
load_streamlines, which fills one buffer with the whole file; sets, which
yields one validated set per block; and copy, the copier, which writes the
records at given rows byte for byte, the header with their count first, so
its output need not be seekable. `filter` streams its candidates with sets
and writes its picks with copy, `metrics` reads its input with sets, and
`arch` reads it so twice. load_streamlines is the one collector of a whole
set, and no command calls it: the tests and the benchmark's output checks
(perfbench/checks.py) do.

STRL records are read and written one streamline.blocks range at a time (at
most BLOCK_POINTS points, or one streamline that alone holds more), as one
buffer of interleaved count and coordinate words. So beside the points of the
set, STRL I/O holds under 30 bytes per point of one block: about 2 MB. The
copier holds one record at a time.

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
it, and `metrics` exits 3 naming the key. Loading a file that sets both k and
n_candidates adds k <= n_candidates.
max_angle_deg must lie in (0, 180]: the gate compares cosines, so a larger
angle would wrap (1000 would gate at 80).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .architecture import R2_THRESHOLD_DEFAULT
from .errors import ConfigError, FormatError, InvalidSpecError, NonUnitError
from .grid import OrientationField, VoxelMask
from .metrics import DensityMap
from .sampling import FSSConfig
from .streamline import StreamlineSet, _float64, _offsets, _validate, as_stream, blocks
from .tracking import TrackingConfig

FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
# Bytes that StreamlineFile's count pass and _read_exact ask a file for at a time.
_READ_BYTES = 1 << 16


def _read_exact(fh, n: int, what: str) -> bytes:
    """The next n bytes of fh, read _READ_BYTES at a time: a file shorter
    than n, whatever n a header claims, raises FormatError after only what
    it holds has been read."""
    parts = []
    while n > 0:
        part = fh.read(min(n, _READ_BYTES))
        if not part:
            raise FormatError(f"truncated file while reading {what}")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


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


def _write_records(fh, sset: StreamlineSet) -> int:
    """Write the records of a set, one block at a time; returns how many.
    The float32 rounding of each block is validated before it is written."""
    offsets = sset.offsets
    for lo, hi in blocks(offsets):
        points = sset.points[offsets[lo] : offsets[hi]]
        _validate(points, offsets[lo : hi + 1] - offsets[lo], as_float32=True)
        heads, coords = _record_words(offsets, lo, hi)
        words = np.empty(len(coords), dtype="<f4")
        words.view("<u4")[heads] = offsets[lo + 1 : hi + 1] - offsets[lo:hi]
        words[coords] = points.reshape(-1)
        fh.write(words)
    return len(sset)


def save_streamlines(path, streamlines) -> int:
    """Write a set, or every set of an iterable of sets in turn, each
    written before the next is drawn. Returns the number of streamlines
    written."""
    with open(path, "wb") as fh:
        # Until the count is patched in, the file claims more records than
        # it holds, so a write cut short leaves a file that fails to load.
        fh.write(b"STRL" + struct.pack("<II", FORMAT_VERSION, 0xFFFFFFFF))
        count = sum(_write_records(fh, sset) for sset in as_stream(streamlines))
        fh.seek(8)
        fh.write(_U32.pack(count))
    return count


class StreamlineFile:
    """A STRL file open for reading, its header and every point count
    checked before any coordinate is read (the count pass reads _READ_BYTES
    at a time). The one record reader: load_streamlines, sets and copy all
    read through its one open file, so what they read is what was checked,
    whatever later happens to the path."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self.start, self.offsets = self._index()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> StreamlineFile:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _index(self) -> tuple[int, np.ndarray]:
        """Where the records start, and the offsets that pack them."""
        fh, path = self._fh, self.path
        _read_header(fh, b"STRL", path)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "count"))
        fd, start = fh.fileno(), fh.tell()
        size = os.fstat(fd).st_size
        counts, pos = [], start
        chunk, at = b"", start  # chunk holds the bytes of the file from at on
        for i in range(count):
            if pos + 4 > at + len(chunk):
                chunk, at = os.pread(fd, _READ_BYTES, pos), pos
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
        return start, _offsets(counts)

    def _read(self, lo: int, hi: int) -> np.ndarray:
        """The (P, 3) float64 points of streamlines lo..hi-1, converted from
        the file's words, which are released when it returns."""
        _, coords = _record_words(self.offsets, lo, hi)
        words = np.empty(len(coords), dtype="<f4")
        self._fh.seek(self.start + 4 * (lo + 3 * self.offsets[lo]))
        if self._fh.readinto(words) != words.nbytes:
            raise FormatError(f"truncated file while reading streamline {lo}")
        return _float64(words[coords]).reshape(-1, 3)

    def sets(self):
        """The streamlines in file order, as one validated set per
        streamline.blocks range, each read when it is drawn."""
        for lo, hi in blocks(self.offsets):
            yield StreamlineSet(self._read(lo, hi), np.diff(self.offsets[lo : hi + 1]))

    def copy(self, path, rows) -> int:
        """Write the streamlines at rows, in that order, to path: the header
        with their count, then each record copied byte for byte, so path
        need not be seekable. path may not be this file. Returns the count."""
        rows = np.asarray(rows, dtype=np.int64)
        fd = self._fh.fileno()
        if os.path.exists(path) and os.path.samestat(os.fstat(fd), os.stat(path)):
            raise FormatError(f"{path}: cannot copy the records of {self.path} onto itself")
        at = self.start + 4 * (np.arange(len(self.offsets)) + 3 * self.offsets)
        with open(path, "wb") as out:
            out.write(b"STRL" + struct.pack("<II", FORMAT_VERSION, len(rows)))
            for lo, hi in zip(at[rows].tolist(), at[rows + 1].tolist()):
                record = os.pread(fd, hi - lo, lo)
                if len(record) != hi - lo:
                    raise FormatError(f"{self.path}: truncated file while copying")
                out.write(record)
        return len(rows)


def load_streamlines(path) -> StreamlineSet:
    """Load streamlines, in file order, into one float64 buffer, which the
    set keeps. Each block is validated once, as sets() reads it."""
    with StreamlineFile(path) as strl:
        points, at = np.empty((strl.offsets[-1], 3)), 0
        for block in strl.sets():
            points[at : at + len(block.points)] = block.points
            at += len(block.points)
            del block  # before the next block is read
    return StreamlineSet._trusted(points, strl.offsets)


def _save_grid(path, magic: bytes, grid: np.ndarray, voxel_size, origin, dtype) -> None:
    """Write a grid file: the MSKV header, then grid (nx, ny, nz[, channels])
    as dtype, x-fastest, with the channels of a voxel contiguous."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(np.asarray(grid.shape[:3], dtype="<u4").tobytes())
        fh.write(np.asarray(voxel_size, dtype="<f4").tobytes())
        fh.write(np.asarray(origin, dtype="<f4").tobytes())
        # Voxel (x, y, z) at flat index x + nx*(y + ny*z).
        fh.write(np.ascontiguousarray(grid.swapaxes(0, 2), dtype=dtype))


def _load_grid(path, magic: bytes, dtype, channels: int, what: str):
    """(grid, voxel_size, origin) of a grid file that _save_grid wrote: grid
    is an (nx, ny, nz[, channels]) view of the payload as dtype, and what
    names the payload in the truncation error."""
    with open(path, "rb") as fh:
        _read_header(fh, magic, path)
        dims = np.frombuffer(_read_exact(fh, 12, "dims"), dtype="<u4").astype(int)
        voxel_size = _float64(np.frombuffer(_read_exact(fh, 12, "voxel_size"), dtype="<f4"))
        origin = _float64(np.frombuffer(_read_exact(fh, 12, "origin"), dtype="<f4"))
        if (dims <= 0).any():
            raise FormatError(f"{path}: non-positive dims {tuple(dims)}")
        shape = tuple(int(d) for d in dims[::-1]) + ((channels,) if channels else ())
        n = math.prod(shape) * np.dtype(dtype).itemsize
        raw = np.frombuffer(_read_exact(fh, n, what), dtype=dtype)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes")
    return raw.reshape(shape).swapaxes(0, 2), voxel_size, origin


def save_mask(path, mask: VoxelMask) -> None:
    _save_grid(path, b"MSKV", mask.occupancy, mask.voxel_size, mask.origin, np.uint8)


def load_mask(path) -> VoxelMask:
    raw, voxel_size, origin = _load_grid(path, b"MSKV", np.uint8, 0, "occupancy")
    if not np.isin(raw, (0, 1)).all():
        raise FormatError(f"{path}: occupancy bytes must be 0 or 1")
    return VoxelMask(raw, voxel_size, origin)


def save_field(path, field: OrientationField) -> None:
    payload = np.concatenate([field.directions, field.fa[..., None]], axis=3)
    _save_grid(path, b"ORNT", payload, field.voxel_size, field.origin, "<f4")


def load_field(path) -> OrientationField:
    raw, voxel_size, origin = _load_grid(path, b"ORNT", "<f4", 4, "field payload")
    grid = _float64(raw)
    directions, fa = grid[..., :3], grid[..., 3]
    try:
        return OrientationField(directions, fa, voxel_size, origin)
    except NonUnitError as exc:
        # A file's directions are renormalized exactly when the field rejects
        # them, up to 1e-4: foreign writers may carry only file precision.
        # This program's float32 output stays inside grid.UNIT_TOL, untouched.
        if not exc.worst <= 1e-4:  # NaN fails
            raise FormatError(f"{path}: non-unit directions where fa > 0 (worst {exc.worst:.3g})")
        directions[fa > 0] /= exc.norms[:, None]
    return OrientationField(directions, fa, voxel_size, origin)


def save_density(path, dmap: DensityMap, normalized: bool = False) -> None:
    data = dmap.normalized() if normalized else dmap.counts.astype(np.float64)
    _save_grid(path, b"DENS", data, dmap.voxel_size, dmap.origin, "<f4")


def load_density(path) -> DensityMap:
    raw, voxel_size, origin = _load_grid(path, b"DENS", "<f4", 0, "density payload")
    return DensityMap(_float64(raw), voxel_size, origin)


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
    the owning config rejects, and k > n_candidates in a file that sets both,
    raise ConfigError."""
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
    # A file that sets only one of the two is not held to the other's
    # default: `track` reads n_candidates alone, and `filter` checks k
    # against the candidates it is given.
    if {"k", "n_candidates"} <= values.keys() and cfg.fss.k > cfg.n_candidates:
        raise ConfigError(f"{path}: k cannot exceed n_candidates")
    return cfg
