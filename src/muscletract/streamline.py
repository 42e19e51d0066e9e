"""Packed streamline storage and polyline geometry for fiber tracts.

A streamline is an ordered 3D polyline in world millimeters with at least two
points and positive arc length. A StreamlineSet packs n of them the way
nibabel's ArraySequence does: one (N, 3) point buffer and n + 1 int64
offsets (streamline i is points[offsets[i]:offsets[i + 1]]); its position is
a streamline's one identity. It is the only streamline container:
every stage of the pipeline, from the tracker to the architecture reductions,
takes and returns one. A set is validated once, over its whole buffer, when
it is built; iterating over it yields each streamline's (c, 3) points as a
view into the buffer. A set built from streamlines that are valid by
construction (the rows of a validated set, or the raw tracks of
tracking.track) is not validated at all.

The buffer is float64 or float32. A set loaded from STRL keeps the file's
float32 coordinates, as TRK, TCK and Dipy's streamlines do, so it takes 12
bytes per point rather than 24. Every read that feeds arithmetic converts
what it reads to float64 first, one block or one gather at a time
(StreamlineSet.block, _float64), and computes in float64: a float32 value
converts exactly, so every result is bit-identical to that of the float64
set of the same values. Copies (take, the STRL writer) keep the set's
dtype.

Work over a set runs in blocks of whole streamlines holding at most
BLOCK_POINTS points, read when the work starts. A streamline longer than the
budget forms a block of its own. So the temporaries of a batched step are
bounded by the budget, not by the size of the set. Resampling sorts the
streamlines by point count and pads every row of a block to its longest
streamline, and the padding counts against the budget.

Batched results equal the per-streamline computation bit for bit (the form
that tests/reference_streamline.py keeps as the oracle):

- resampling runs the per-streamline cumulative chord length as one
  np.add.accumulate along padded rows (accumulation is sequential, and the
  padding adds exact zeros after the last point);
- arc lengths reduce the streamlines of one point count as rows of one
  array, which numpy sums in the same pairwise order as a single streamline.

The module also holds the minimum average direct-flip (MDF) distance kernel
between equal-count resampled streamlines that the farthest-first filter runs
on.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityError, InvalidStreamlineError

DEFAULT_RESAMPLE_POINTS = 12

# Points that one block of a batched step over a set may hold, padding included.
BLOCK_POINTS = 1 << 16


def blocks(offsets: np.ndarray):
    """(lo, hi) ranges of consecutive streamlines of a packed buffer that
    hold at most BLOCK_POINTS points, or one streamline that alone holds more."""
    lo, n = 0, len(offsets) - 1
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + BLOCK_POINTS, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as np.unique(a) gives
    them. np.unique's test for a masked array imports numpy.ma (~14 ms of
    start-up) on its first call; one sort and one comparison pass do not."""
    a = np.sort(a, axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _float64(a: np.ndarray) -> np.ndarray:
    """a as float64: a itself if it is float64, else converted. Converting a
    signaling NaN (float32 word 0x7f800001) raises the invalid-operation
    flag, which is ignored: it becomes a quiet NaN, not a RuntimeWarning."""
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64, copy=False)


def _validate(points: np.ndarray, offsets: np.ndarray) -> None:
    """Every streamline finite, of two or more points and positive length.

    A streamline has zero length exactly when (seg * seg).sum(1) is zero for
    all of its segments, the test a summed chord length of zero reduces to;
    as a sum of squares, it is zero where every squared component is.

    The check runs one block at a time and one axis at a time, so besides
    the set it holds one float and two flags per point of one block, the
    block's float64 copy if the set is float32, and a few bytes per
    streamline.
    """
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidStreamlineError(f"expected (n, 3) points, got shape {points.shape}")
    if offsets[-1] != len(points):
        raise InvalidStreamlineError(f"point counts add up to {offsets[-1]}, not {len(points)}")
    if (np.diff(offsets) < 2).any():
        raise InvalidStreamlineError("streamline needs at least two points")
    for lo, hi in blocks(offsets):
        pts = _float64(points[offsets[lo] : offsets[hi]])
        _validate_block(pts, offsets[lo : hi + 1] - offsets[lo])


def _validate_block(pts: np.ndarray, offsets: np.ndarray) -> None:
    """_validate's finite and positive-length checks of the streamlines of
    one block, at offsets into its points pts."""
    if not all(np.isfinite(pts[:, c]).all() for c in range(3)):
        raise InvalidStreamlineError("streamline contains non-finite coordinates")
    moved = np.zeros(len(pts) - 1, dtype=bool)
    sq = np.empty(len(pts) - 1)
    for c in range(3):
        np.subtract(pts[1:, c], pts[:-1, c], out=sq)
        sq *= sq
        moved |= sq > 0
    # Segments offsets[i] .. offsets[i + 1] - 2 belong to streamline i; the
    # one from its last point to the next streamline's first is not its own.
    moved[offsets[1:-1] - 1] = False
    if not np.logical_or.reduceat(moved, offsets[:-1]).all():
        raise InvalidStreamlineError("streamline has zero arc length")


class StreamlineSet:
    """Streamlines sharing one coordinate frame, packed as described in the
    module docstring."""

    def __init__(self, points, counts):
        """A set over an (N, 3) point buffer that holds streamlines of the
        given point counts one after another. A float64 or float32 buffer is
        used as given, not copied; any other is converted to float64. Every
        streamline is validated (_validate)."""
        points = np.asarray(points)
        self.points = points if points.dtype == np.float32 else np.asarray(points, dtype=np.float64)
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        _validate(self.points, self.offsets)

    @classmethod
    def _trusted(cls, points, offsets) -> StreamlineSet:
        """A set over streamlines that are valid by construction, unchecked."""
        sset = cls.__new__(cls)
        sset.points, sset.offsets = points, offsets
        return sset

    @property
    def counts(self) -> np.ndarray:
        """Point count of every streamline."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        """Each streamline's (c, 3) points, in set order, as views into the
        buffer, at its dtype."""
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.points[lo:hi]

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last point of every streamline, as two (n, 3) float64
        arrays."""
        return _float64(self.points[self.offsets[:-1]]), _float64(self.points[self.offsets[1:] - 1])

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The points of streamlines lo..hi-1 as float64: a view of a
        float64 buffer, a copy of a float32 one."""
        return _float64(self.points[self.offsets[lo] : self.offsets[hi]])

    def _selection(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(starts, offsets) of the streamlines at the given positions: the
        row of this set's buffer where each starts, and the offsets that pack
        them in that order. _gathered reads their points."""
        rows = np.asarray(rows, dtype=np.int64)
        starts, counts = self.offsets[rows], self.offsets[rows + 1] - self.offsets[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return starts, offsets

    def _gathered(self, starts, offsets, lo: int, hi: int) -> np.ndarray:
        """The points of streamlines lo..hi-1 of a selection, packed in
        order."""
        src = np.repeat(starts[lo:hi] - offsets[lo:hi], np.diff(offsets[lo : hi + 1]))
        return self.points[src + np.arange(offsets[lo], offsets[hi])]

    def take(self, rows) -> StreamlineSet:
        """The streamlines at the given positions, in that order, copied one
        block at a time at this set's dtype. The copied rows were validated
        with this set, so they are not checked again."""
        starts, offsets = self._selection(rows)
        points = np.empty((offsets[-1], 3), dtype=self.points.dtype)
        for lo, hi in blocks(offsets):
            points[offsets[lo] : offsets[hi]] = self._gathered(starts, offsets, lo, hi)
        return StreamlineSet._trusted(points, offsets)


def arc_lengths(points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Arc length of every streamline of a packed buffer, in millimeters: the
    sum of the distances between consecutive points."""
    return _lengths(points, offsets[:-1], np.diff(offsets))


def _lengths(points: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Arc length of the polylines of counts points starting at starts,
    bit for bit as np.sqrt((seg * seg).sum(1)).sum() of one polyline's
    segments seg.

    The polylines of one point count c are summed as the rows of a
    (g, c - 1) array, which numpy reduces row by row in the pairwise order
    it uses for one (c - 1)-vector. Squared segment lengths are summed x,
    then y, then z, as (seg * seg).sum(1) does.
    """
    order = np.argsort(counts, kind="stable")
    ends = np.flatnonzero(np.diff(counts[order])) + 1
    out = np.zeros(len(counts))
    for group in np.split(order, ends):
        c = int(counts[group[0]]) if len(group) else 0
        if c < 2:
            continue
        step = max(1, BLOCK_POINTS // c)
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            seg = np.diff(_float64(points[starts[rows, None] + np.arange(c)]), axis=1)
            sq = seg[..., 0] * seg[..., 0]
            sq += seg[..., 1] * seg[..., 1]
            sq += seg[..., 2] * seg[..., 2]
            out[rows] = np.sqrt(sq).sum(axis=1)
    return out


def _padded_runs(counts: np.ndarray, budget: int):
    """(lo, hi) ranges of ascending counts whose padded size
    (hi - lo) * counts[hi - 1] is at most budget, or one row each."""
    lo, n = 0, len(counts)
    while lo < n:
        size = np.arange(1, min(n - lo, budget) + 1) * counts[lo : lo + budget]
        hi = lo + max(1, int(np.searchsorted(size, budget, side="right")))
        yield lo, hi
        lo = hi


def _count_at_most(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """np.searchsorted(row, t, side="right") for every target t of every
    ascending row, by one bisection over all of them."""
    width = rows.shape[1]
    r = np.arange(len(rows))[:, None]
    lo, hi = np.zeros(targets.shape, dtype=np.int64), np.full(targets.shape, width)
    for _ in range(width.bit_length()):
        mid = (lo + hi) // 2
        right = (lo < hi) & (rows[r, np.minimum(mid, width - 1)] <= targets)
        hi = np.where(right, hi, mid)  # where lo == hi, mid is hi
        lo = np.where(right, mid + 1, lo)
    return lo


def _resample_rows(points: np.ndarray, starts: np.ndarray, counts: np.ndarray, m: int):
    """Resample the streamlines starting at starts, with counts points each;
    returns the (g, m, 3) points and every streamline's total length.

    Each row is padded to the longest with copies of its last point, so the
    padding adds zero-length segments that leave the cumulative length exact.
    Squared segment lengths are summed x, then y, then z, as (seg * seg).sum(1)
    does, so a total sums the segment lengths that arc_lengths sums, but in
    sequence rather than pairwise.
    """
    width = int(counts.max())
    r = np.arange(len(starts))[:, None]
    at = starts[:, None] + np.minimum(np.arange(width), counts[:, None] - 1)
    sq = np.zeros((len(starts), width - 1))
    for c in range(3):
        p = _float64(points[:, c][at])
        d = p[:, 1:] - p[:, :-1]
        sq += d * d
    seg_len = np.sqrt(sq)
    cum = np.zeros((len(starts), width))
    np.add.accumulate(seg_len, axis=1, out=cum[:, 1:])

    totals = cum[r[:, 0], counts - 1]
    targets = np.linspace(0.0, totals, m, axis=1)
    idx = np.clip(_count_at_most(cum, targets) - 1, 0, counts[:, None] - 2)
    length = seg_len[r, idx]
    frac = (targets - cum[r, idx]) / np.where(length > 0.0, length, 1.0)
    at = starts[:, None] + idx
    p, q = _float64(points[at]), _float64(points[at + 1])
    out = p + frac[..., None] * (q - p)
    out[:, 0] = points[starts]
    out[:, -1] = points[starts + counts - 1]
    return out, totals


def _resample_set(sset: StreamlineSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m points at equal arc-length spacing along every streamline of a set,
    as an (n, m, 3) array, and every streamline's segment lengths summed in
    sequence: within 2 * (c + 8) * 2**-53 of its arc length, relative, for
    c points (both sum the same c - 1 non-negative terms).

    Parameterizes by cumulative chord length; the two endpoints are copied
    exactly from the input.
    """
    if m < 2:
        raise ArityError(f"resample needs m >= 2, got {m}")
    counts = sset.counts
    order = np.argsort(counts, kind="stable")
    out = np.empty((len(counts), m, 3))
    totals = np.empty(len(counts))
    for lo, hi in _padded_runs(counts[order], BLOCK_POINTS):
        rows = order[lo:hi]
        out[rows], totals[rows] = _resample_rows(sset.points, sset.offsets[rows], counts[rows], m)
    return out, totals


def _palindromic_mean(d: np.ndarray) -> np.ndarray:
    # Sums per-point distances by palindromic index pairs so the result is
    # bit-identical under argument swap and under flipping both operands.
    # The pair sums are laid out C-contiguous whatever the layout of d, so
    # every row is reduced by the same contiguous summation as a 1-D input.
    m = d.shape[-1]
    half = m // 2
    total = np.add(d[..., :half], d[..., ::-1][..., :half], order="C").sum(axis=-1)
    if m % 2:
        total = total + d[..., half]
    return total / m


def _mean_distances(coords: np.ndarray, q: np.ndarray) -> np.ndarray:
    dx = coords[0] - q[:, 0, None]
    dy = coords[1] - q[:, 1, None]
    dz = coords[2] - q[:, 2, None]
    return _palindromic_mean(np.sqrt(dx * dx + dy * dy + dz * dz).T)


def mdf_rows(coords: np.ndarray, q: np.ndarray) -> np.ndarray:
    """MDF from every streamline of a (3, m, n) coordinate stack to one (m, 3)
    streamline.

    MDF is min(d_direct, d_flipped), where d_direct is the mean pointwise
    Euclidean distance and d_flipped pairs one operand with the other
    reversed; it is symmetric in its arguments at the bit level. The stack is
    structure-of-arrays: coords[c, i, s] is coordinate c of point i of
    streamline s, so each arithmetic pass runs over n contiguous values.
    """
    return np.minimum(_mean_distances(coords, q), _mean_distances(coords, q[::-1]))
