"""Packed streamline storage and polyline geometry for fiber tracts.

A streamline is an ordered 3D polyline in world millimeters with at least two
points and positive arc length. A StreamlineSet packs n of them the way
nibabel's ArraySequence does: one (N, 3) float64 point buffer and n + 1
int64 offsets (streamline i is points[offsets[i]:offsets[i + 1]]); its
position is a streamline's one identity. It is the only streamline
container: every stage of the pipeline, from the tracker to the architecture
reductions, takes and returns one, or an iterable of them that holds the
streamlines in turn (as_stream). A set is validated once, over its whole
buffer, when it is built; iterating over it yields each streamline's (c, 3)
points as a view into the buffer. A set built from streamlines that are
valid by construction (the rows of a validated set, or the sets of
tracking.reconstruct_batches) is not validated at all.

A set converts the points it is built from to float64 (_float64), whatever
their dtype, so every stage computes on one point type. The only other one
is the 4-byte word of a STRL file (formats): the writer rounds each block to
it and validates that rounding (_validate), and the reader converts the
words back, exactly, so a set read from a file holds the values written.

Work over a set runs in blocks of whole streamlines holding at most
BLOCK_POINTS points, read when the work starts; the voxel keys of the metrics
module, at about 145 bytes per point, run on an eighth of it. A streamline
longer than the budget forms a block of its own. So the temporaries of a
batched step are bounded by the budget, not by the size of the set.
Resampling sorts the streamlines by point count and pads every row of a
block to its longest streamline, and the padding counts against the budget.

Batched results equal the per-streamline computation bit for bit (the form
that tests/reference_streamline.py keeps as the oracle). One kernel,
_segment_lengths, computes segment lengths for both of them, with the
arithmetic of one streamline's np.sqrt((seg * seg).sum(1)):

- resampling runs the per-streamline cumulative chord length as one
  np.add.accumulate along padded rows (accumulation is sequential, and the
  padding adds exact zeros after the last point);
- arc lengths, from arc_lengths or from the resampler, reduce the segment
  lengths of the streamlines of one point count as rows of one array, which
  numpy sums in the same pairwise order as a single streamline.

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


def blocks(offsets: np.ndarray, budget: int | None = None):
    """(lo, hi) ranges of consecutive streamlines of a packed buffer that
    hold at most budget points (BLOCK_POINTS, read at the call, by default),
    or one streamline that alone holds more."""
    budget = BLOCK_POINTS if budget is None else budget
    lo, n = 0, len(offsets) - 1
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + budget, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _offsets(counts) -> np.ndarray:
    """The n + 1 offsets that pack streamlines of the given point counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


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
    signaling NaN (the STRL word 0x7f800001) raises the invalid-operation
    flag, which is ignored: it becomes a quiet NaN, not a RuntimeWarning."""
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64, copy=False)


def _validate(points: np.ndarray, offsets: np.ndarray, as_float32: bool = False) -> None:
    """Every streamline of float64 points finite, of two or more points and
    positive length, in the float32 rounding of the points if as_float32
    (so also in them).

    A streamline has zero length exactly when (seg * seg).sum(1) is zero for
    all of its segments, the test a summed chord length of zero reduces to;
    as a sum of squares, it is zero where every squared component is. For
    float32 points that is where every component is unchanged: the float64
    difference of two distinct float32 values is at least 2**-149 in
    magnitude, so its square, at least 2**-298, does not underflow to zero.
    So the STRL writer tests the float32 words it will write on the words
    themselves, with no float64 copy, and refuses exactly what the reader
    rejects when it validates the float64 values of those words.

    The check runs one block at a time and one axis at a time, so besides
    the points it holds one float (a float32 when rounding) and two flags
    per point of one block, and a few bytes per streamline.
    """
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidStreamlineError(f"expected (n, 3) points, got shape {points.shape}")
    if offsets[-1] != len(points):
        raise InvalidStreamlineError(f"point counts add up to {offsets[-1]}, not {len(points)}")
    if (np.diff(offsets) < 2).any():
        raise InvalidStreamlineError("streamline needs at least two points")
    for lo, hi in blocks(offsets):
        block = points[offsets[lo] : offsets[hi]]
        _validate_block(block, offsets[lo : hi + 1] - offsets[lo], as_float32)


def _validate_block(pts: np.ndarray, offsets: np.ndarray, as_float32: bool) -> None:
    """_validate's finite and positive-length checks of the streamlines of
    one block, at offsets into its points pts."""
    moved = np.zeros(len(pts) - 1, dtype=bool)
    sq = None
    for c in range(3):
        col = pts[:, c]
        if as_float32:
            # A coordinate beyond float32's range rounds to inf: non-finite.
            with np.errstate(over="ignore"):
                col = col.astype(np.float32)
        if not np.isfinite(col).all():
            raise InvalidStreamlineError("streamline contains non-finite coordinates")
        if as_float32:
            moved |= col[1:] != col[:-1]
        else:
            sq = np.subtract(col[1:], col[:-1], out=sq)
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
        given point counts one after another. A float64 buffer is used as
        given, not copied; any other is converted to float64 (_float64).
        Every streamline is validated (_validate)."""
        self.points = _float64(np.asarray(points))
        self.offsets = _offsets(counts)
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
        buffer."""
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.points[lo:hi]

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last point of every streamline, as two (n, 3) arrays."""
        return self.points[self.offsets[:-1]], self.points[self.offsets[1:] - 1]

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The points of streamlines lo..hi-1, a view of the buffer."""
        return self.points[self.offsets[lo] : self.offsets[hi]]

    def take(self, rows) -> StreamlineSet:
        """The streamlines at the given positions, in that order, copied one
        block at a time. The copied rows were validated
        with this set, so they are not checked again."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        offsets = _offsets(self.offsets[rows + 1] - starts)
        points = np.empty((offsets[-1], 3))
        for lo, hi in blocks(offsets):
            a, b = offsets[lo], offsets[hi]
            src = np.repeat(starts[lo:hi] - offsets[lo:hi], np.diff(offsets[lo : hi + 1]))
            points[a:b] = self.points[src + np.arange(a, b)]
        return StreamlineSet._trusted(points, offsets)


def as_stream(tracts):
    """tracts, a set or an iterable of sets that hold the streamlines in
    turn, as an iterable of sets."""
    return [tracts] if isinstance(tracts, StreamlineSet) else tracts


def arc_lengths(points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Arc length of every streamline of a packed buffer, in millimeters: the
    sum of the distances between consecutive points."""
    return _lengths(points, offsets[:-1], np.diff(offsets))


def _by_count(counts: np.ndarray):
    """(c, rows) for every distinct value c of counts, ascending: the
    positions where counts equals c, in order."""
    order = np.argsort(counts, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        if len(rows):
            yield int(counts[rows[0]]), rows


def _segment_lengths(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The (g, w - 1) lengths of the segments between the points at
    consecutive indices of each row of a (g, w) index array, bit for bit as
    np.sqrt((seg * seg).sum(1)) of one polyline's segments seg: each axis is
    gathered on its own, and the squared differences are summed x, then y,
    then z."""
    sq = None
    for c in range(3):
        p = points[:, c][at]
        d = p[:, 1:] - p[:, :-1]
        d *= d
        sq = d if sq is None else np.add(sq, d, out=sq)
    return np.sqrt(sq, out=sq)


def _lengths(points: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Arc length of the polylines of counts points starting at starts,
    bit for bit as np.sqrt((seg * seg).sum(1)).sum() of one polyline's
    segments seg.

    The polylines of one point count c are summed as the rows of a
    (g, c - 1) array, which numpy reduces row by row in the pairwise order
    it uses for one (c - 1)-vector.
    """
    out = np.zeros(len(counts))
    for c, group in _by_count(counts):
        if c < 2:
            continue
        step = max(1, BLOCK_POINTS // c)
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            out[rows] = _segment_lengths(points, starts[rows, None] + np.arange(c)).sum(axis=1)
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
    returns the (g, m, 3) points and every streamline's arc length.

    Each row is padded to the longest with copies of its last point, so the
    padding adds zero-length segments that leave the cumulative length, the
    resampling parameter, exact. The lengths sum the first c - 1 segments of
    the rows of each point count c, as _lengths does.
    """
    width = int(counts.max())
    r = np.arange(len(starts))[:, None]
    at = starts[:, None] + np.minimum(np.arange(width), counts[:, None] - 1)
    seg_len = _segment_lengths(points, at)
    cum = np.zeros((len(starts), width))
    np.add.accumulate(seg_len, axis=1, out=cum[:, 1:])
    arcs = np.empty(len(starts))
    for c, rows in _by_count(counts):
        arcs[rows] = seg_len[rows, : c - 1].sum(axis=1)

    totals = cum[r[:, 0], counts - 1]
    targets = np.linspace(0.0, totals, m, axis=1)
    idx = np.clip(_count_at_most(cum, targets) - 1, 0, counts[:, None] - 2)
    length = seg_len[r, idx]
    frac = (targets - cum[r, idx]) / np.where(length > 0.0, length, 1.0)
    at = starts[:, None] + idx
    p, q = points[at], points[at + 1]
    out = p + frac[..., None] * (q - p)
    out[:, 0] = points[starts]
    out[:, -1] = points[starts + counts - 1]
    return out, arcs


def _resample_set(sset: StreamlineSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m points at equal arc-length spacing along every streamline of a set,
    as an (n, m, 3) array, and every streamline's arc length, bit for bit
    as arc_lengths gives it.

    Parameterizes by cumulative chord length; the two endpoints are copied
    exactly from the input.
    """
    if m < 2:
        raise ArityError(f"resample needs m >= 2, got {m}")
    counts = sset.counts
    order = np.argsort(counts, kind="stable")
    out = np.empty((len(counts), m, 3))
    lengths = np.empty(len(counts))
    for lo, hi in _padded_runs(counts[order], BLOCK_POINTS):
        rows = order[lo:hi]
        out[rows], lengths[rows] = _resample_rows(sset.points, sset.offsets[rows], counts[rows], m)
    return out, lengths


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
