import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from muscletract.errors import ArityError, InvalidStreamlineError
from muscletract.formats import load_streamlines, save_streamlines
from muscletract.streamline import StreamlineSet, _distinct, _resample_set, arc_lengths, mdf_rows
from reference_streamline import ResampledStreamline, arc_length, flip, mdf, pack, resample


def mdf_to_one(stack, q):
    """MDF from every streamline of an (n, m, 3) stack to one (m, 3) streamline."""
    return mdf_rows(stack.transpose(2, 1, 0), q)


def naive_arc_length(points):
    """Per-segment oracle: explicit loop over consecutive norms."""
    total = 0.0
    for i in range(len(points) - 1):
        total += math.dist(points[i], points[i + 1])
    return total


def arc_walk_resample(points, m, step=1e-4):
    """Brute-force arc-length parameterization at fixed tiny steps."""
    points = np.asarray(points, dtype=float)
    total = naive_arc_length(points)
    targets = [i * total / (m - 1) for i in range(m)]
    walked = 0.0
    out = [points[0].copy()]
    ti = 1
    pos = points[0].copy()
    seg = 0
    while ti < m - 1:
        remaining = math.dist(pos, points[seg + 1])
        if walked + remaining < targets[ti] - 1e-12:
            walked += remaining
            seg += 1
            pos = points[seg].copy()
            continue
        d = points[seg + 1] - pos
        d = d / np.linalg.norm(d)
        advance = min(step, targets[ti] - walked)
        pos = pos + advance * d
        walked += advance
        if walked >= targets[ti] - 1e-12:
            out.append(pos.copy())
            ti += 1
    out.append(points[-1].copy())
    return np.array(out)


def finite_points(n):
    return st.lists(
        st.tuples(*[st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)] * 3),
        min_size=n,
        max_size=n,
    ).map(np.array)


def length_of(points) -> float:
    """arc_lengths of a set of one streamline."""
    sset = pack([points])
    return float(arc_lengths(sset.points, sset.offsets)[0])


class TestArcLength:
    """arc_lengths, and the checks a set makes of the streamlines it packs."""

    def test_345_triangle(self):
        assert length_of([(0, 0, 0), (3, 4, 0)]) == 5.0

    def test_collinear_segments(self):
        assert length_of([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) == 2.0

    def test_matches_naive_oracle_on_random_polyline(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 10, (5, 3))
        assert length_of(pts) == pytest.approx(naive_arc_length(pts), rel=1e-12)
        assert length_of(pts) == arc_length(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidStreamlineError):
            pack([[(0, 0, 0)]])
        with pytest.raises(InvalidStreamlineError):
            arc_length(np.array([[0.0, 0.0, 0.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidStreamlineError):
            pack([[(0, 0, 0), (np.nan, 0, 0)]])

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidStreamlineError):
            pack([[(1, 1, 1), (1, 1, 1)]])


class TestResample:
    def test_straight_segment_uniform_subdivision(self):
        r = resample(np.array([(0, 0, 0), (11, 0, 0)]), 12)
        assert np.allclose(r.points[:, 0], np.arange(12.0))
        assert np.allclose(r.points[:, 1:], 0.0)

    def test_m2_returns_endpoints(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (7, 3))
        r = resample(pts, 2)
        assert np.array_equal(r.points, pts[[0, -1]])

    def test_l_shape_against_arc_walk_oracle(self):
        pts = np.array([(0, 0, 0), (4, 0, 0), (4, 4, 0)], dtype=float)
        r = resample(pts, 5)
        want = arc_walk_resample(pts, 5)
        assert np.abs(r.points - want).max() < 2e-4
        # arc positions 0, 2, 4, 6, 8 mm land at these exact corners
        exact = np.array([(0, 0, 0), (2, 0, 0), (4, 0, 0), (4, 2, 0), (4, 4, 0)], dtype=float)
        assert np.allclose(r.points, exact, atol=1e-12)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5, 5, (9, 3))
        r = resample(pts, 12)
        assert np.array_equal(r.points[0], pts[0])
        assert np.array_equal(r.points[-1], pts[-1])

    def test_equal_arc_spacing(self):
        rng = np.random.default_rng(13)
        pts = np.cumsum(rng.uniform(0.1, 1.0, (20, 3)), axis=0)
        r = resample(pts, 12)
        # consecutive samples sit at equal arc positions along the source curve
        total = arc_length(pts)
        spacing = total / 11
        chords = np.linalg.norm(np.diff(r.points, axis=0), axis=1)
        assert (chords <= spacing * (1 + 1e-9)).all()

    def test_m_below_2_rejected(self):
        with pytest.raises(ArityError):
            resample(np.array([(0, 0, 0), (1, 0, 0)]), 1)
        with pytest.raises(ArityError):
            _resample_set(pack([[(0, 0, 0), (1, 0, 0)]]), 1)

    def test_resampled_shorter_than_source(self):
        rng = np.random.default_rng(17)
        pts = np.cumsum(rng.uniform(-1, 1, (30, 3)) + [0.2, 0, 0], axis=0)
        for m in (2, 4, 8, 12, 24):
            assert arc_length(resample(pts, m).points) <= arc_length(pts) + 1e-12

    def test_length_preserved_on_smooth_arc(self):
        # arc-length monotonicity in m and 1% preservation hold on smooth tracts
        t = np.linspace(0, np.pi / 2, 400)
        pts = np.column_stack([30 * np.cos(t), np.zeros_like(t), 30 * np.sin(t)])
        total = arc_length(pts)
        prev = 0.0
        for m in (2, 3, 4, 6, 12, 24, 48):
            cur = arc_length(resample(pts, m).points)
            assert cur >= prev - 1e-12
            prev = cur
        assert arc_length(resample(pts, 12).points) >= 0.99 * total


class TestFlip:
    def test_reverses_points(self):
        r = ResampledStreamline([(0, 0, 0), (1, 0, 0)])
        assert np.array_equal(flip(r).points, [(1, 0, 0), (0, 0, 0)])

    def test_palindrome_fixed(self):
        r = ResampledStreamline([(0, 0, 0), (1, 1, 1), (0, 0, 0)])
        assert np.array_equal(flip(r).points, r.points)

    @given(finite_points(6))
    def test_involution(self, pts):
        r = ResampledStreamline(pts)
        assert np.array_equal(flip(flip(r)).points, r.points)


def random_resampled(rng, m=12):
    pts = np.cumsum(rng.uniform(-2, 2, (m, 3)), axis=0)
    return ResampledStreamline(pts)


class TestMDF:
    def test_identity(self):
        r = random_resampled(np.random.default_rng(1))
        assert mdf(r, r) == 0.0

    def test_flip_of_self_is_zero(self):
        r = random_resampled(np.random.default_rng(2))
        assert mdf(r, flip(r)) == 0.0

    def test_parallel_offset(self):
        a = ResampledStreamline(np.column_stack([np.arange(12.0), np.zeros(12), np.zeros(12)]))
        b = ResampledStreamline(a.points + [0, 2, 0])
        assert mdf(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_mismatched_counts_rejected(self):
        a = ResampledStreamline([(0, 0, 0), (1, 0, 0)])
        b = ResampledStreamline([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        with pytest.raises(ArityError):
            mdf(a, b)

    def test_symmetry_and_flip_invariance_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = random_resampled(rng), random_resampled(rng)
            d = mdf(a, b)
            assert mdf(b, a) == d
            assert mdf(flip(a), b) == d
            assert mdf(a, flip(b)) == d
            assert d >= 0.0

    @given(finite_points(12), finite_points(12))
    @settings(max_examples=60)
    def test_symmetry_property(self, pa, pb):
        a, b = ResampledStreamline(pa), ResampledStreamline(pb)
        assert mdf(a, b) == mdf(b, a)
        assert mdf(a, b) >= 0.0

    def test_batch_matches_structure(self):
        rng = np.random.default_rng(9)
        rs = [random_resampled(rng) for _ in range(20)]
        stack = np.stack([r.points for r in rs])
        d = mdf_to_one(stack, rs[3].points)
        assert d[3] == 0.0
        assert (d >= 0).all()

    @pytest.mark.parametrize("m", [2, 3, 11, 12, 16, 17, 40])
    def test_batch_bit_identical_to_scalar(self, m):
        # m >= 16 gives 8 or more palindromic pairs, where numpy sums a
        # contiguous row pairwise rather than left to right
        rng = np.random.default_rng(m)
        rs = [random_resampled(rng, m) for _ in range(30)]
        stack = np.stack([r.points for r in rs])
        for q in (rs[0], rs[7], flip(rs[7])):
            row = mdf_to_one(stack, q.points)
            assert np.array_equal(row, [mdf(r, q) for r in rs])
            assert np.array_equal(row, [mdf(q, r) for r in rs])
            assert np.array_equal(row, mdf_to_one(stack[:, ::-1], q.points))


class TestStreamlineSet:
    def test_holds_only_points_and_offsets(self, tmp_path):
        pts = np.array([[0, 0, 0], [1, 0, 0]] * 3, dtype=float)
        built = StreamlineSet(pts, [2, 2, 2])
        save_streamlines(tmp_path / "s.strl", built)
        for sset in (built, StreamlineSet._trusted(built.points, built.offsets), built.take([2, 0]),
                     load_streamlines(tmp_path / "s.strl")):
            assert set(vars(sset)) == {"points", "offsets"}
        assert len(built) == 3 and built.offsets.tolist() == [0, 2, 4, 6]

    def test_stack_resampled_shape(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 2, 0], [0, 4, 0]], dtype=float)
        stack, totals = _resample_set(StreamlineSet(pts, [2, 3]), 12)
        assert stack.shape == (2, 12, 3) and totals.tolist() == [1.0, 4.0]


def test_resample_points_handles_duplicate_vertices():
    pts = np.array([(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)], dtype=float)
    out = _resample_set(pack([pts]), 5)[0][0]
    assert np.allclose(out[:, 0], [0, 0.5, 1.0, 1.5, 2.0])


# ---------------------------------------------------------------------------
# packed sets against the one-streamline reference
# ---------------------------------------------------------------------------

import muscletract.streamline as streamline_mod  # noqa: E402
from muscletract.streamline import blocks  # noqa: E402
from reference_streamline import resample_points  # noqa: E402


def adversarial_polylines(rng):
    """2-point lines, repeated consecutive points, integer (voxel-face)
    coordinates, axis-parallel segments and very unequal lengths."""
    out = [np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]), np.array([(2.0, 3.0, 4.0), (2.0, 3.0, 9.5)])]
    walk = np.cumsum(rng.uniform(-1, 1, (30, 3)), axis=0)
    out.append(np.repeat(walk, rng.integers(1, 4, len(walk)), axis=0))  # repeated points
    out.append(np.floor(np.cumsum(rng.uniform(-2, 2, (25, 3)), axis=0)))  # on voxel faces
    steps = np.zeros((40, 3))
    steps[np.arange(40), rng.integers(0, 3, 40)] = rng.choice([-1.0, 1.0], 40)
    out.append(np.cumsum(steps, axis=0))  # face-parallel unit moves
    out.append(np.cumsum(rng.normal(0, 0.1, (5000, 3)), axis=0))  # very long
    out.append(np.array([(0.0, 0.0, 0.0), (1e-160, 0.0, 0.0)]))  # squares just above zero
    return out


def assert_matches_reference(arrays, m):
    sset = pack(arrays)
    stack, _ = _resample_set(sset, m)
    for a, got in zip(arrays, stack):
        assert np.array_equal(got, resample_points(a, m))
    want = [arc_length(a) for a in arrays]
    assert np.array_equal(arc_lengths(sset.points, sset.offsets), want)


polylines = st.lists(
    st.tuples(
        st.integers(2, 40),
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.0, 0.5, 1.0]),
    ),
    min_size=1,
    max_size=12,
).map(lambda specs: [
    # a random walk, its values rounded to a grid step (0 keeps them as drawn)
    (lambda w: np.round(w / q) * q if q else w)(
        np.cumsum(np.random.default_rng(seed).uniform(-3, 3, (n, 3)), axis=0)
    ) + [0.0, 0.0, 0.5 * i]
    for i, (n, seed, q) in enumerate(specs)
])


class TestPackedMatchesReference:
    @given(polylines, st.sampled_from([2, 3, 12, 17]))
    @settings(max_examples=60, deadline=None)
    def test_resampling_and_lengths(self, arrays, m):
        arrays = [a for a in arrays if arc_length(a) > 0]
        if arrays:
            assert_matches_reference(arrays, m)

    @pytest.mark.parametrize("m", [2, 3, 12, 17, 64])
    def test_adversarial_sets(self, m):
        assert_matches_reference(adversarial_polylines(np.random.default_rng(m)), m)

    @pytest.mark.parametrize("budget", [1, 5, 64])
    def test_results_do_not_depend_on_the_block_budget(self, monkeypatch, budget):
        arrays = adversarial_polylines(np.random.default_rng(3))
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        assert_matches_reference(arrays, 12)
        out = pack(arrays).take([5, 0, 3])
        assert [len(s) for s in out] == [5000, 2, len(arrays[3])]
        assert all(np.array_equal(s, arrays[i]) for s, i in zip(out, [5, 0, 3]))


def length_sets():
    """Walks of many point counts, so that padded runs mix counts: at
    float64, at their float32 rounding, and offset by 1e4 mm, where a
    pairwise and a sequential sum of one walk's segments often differ."""
    rng = np.random.default_rng(21)
    counts = np.concatenate([rng.integers(2, 60, 150), rng.integers(200, 900, 12), [2, 2, 3, 3000]])
    walk = np.cumsum(rng.normal(0.0, 0.3, (counts.sum(), 3)), axis=0)
    return [StreamlineSet(walk, counts), StreamlineSet(walk.astype(np.float32), counts),
            StreamlineSet(walk + 1e4, counts), pack(adversarial_polylines(rng))]


@pytest.mark.parametrize("budget", [1, 97, streamline_mod.BLOCK_POINTS])
class TestOneSegmentLengthKernel:
    """Arc lengths from the resampler and from _lengths over any rows equal
    the one-streamline arc length bit for bit, whatever the block budget."""

    def test_resampler_lengths_are_arc_lengths(self, monkeypatch, budget):
        sets = length_sets()
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        for sset in sets:
            _, lengths = _resample_set(sset, 12)
            want = arc_lengths(sset.points, sset.offsets)
            assert lengths.tobytes() == want.tobytes()
            assert np.array_equal(want, [arc_length(s) for s in sset])

    def test_lengths_of_rows_in_any_order(self, monkeypatch, budget):
        sets = length_sets()
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        rng = np.random.default_rng(budget)
        for sset in sets:
            rows = rng.permutation(len(sset))[: len(sset) // 2 + 1]
            rows = np.concatenate([rows, rows[:5]])  # and repeated rows
            got = streamline_mod._lengths(sset.points, sset.offsets[rows], sset.counts[rows])
            whole = list(sset)
            assert np.array_equal(got, [arc_length(whole[r]) for r in rows])


class TestPackedSet:
    def test_blocks_keep_a_long_streamline_alone(self, monkeypatch):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 7)
        offsets = np.cumsum([0, 3, 50, 2, 2, 3, 4])
        assert list(blocks(offsets)) == [(0, 1), (1, 2), (2, 5), (5, 6)]

    def test_iteration_yields_views(self):
        pts = np.arange(21, dtype=float).reshape(7, 3)
        sset = StreamlineSet(pts, [2, 5])
        views = list(sset)
        assert [len(s) for s in views] == [2, 5]
        assert all(np.shares_memory(s, sset.points) for s in views)
        assert np.array_equal(views[1], pts[2:])
        first, last = sset.endpoints()
        assert np.array_equal(first, pts[[0, 2]]) and np.array_equal(last, pts[[1, 6]])

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("bad", [
        "nan", "one_point", "zero_length", "underflowing_squares",
    ])
    def test_each_streamline_checked_once_for_the_set(self, monkeypatch, where, bad):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 4)  # each streamline its own block
        arrays = [np.array([(0.0, 0, 0), (1, 0, 0), (2, 0, 0)]) + i for i in range(3)]
        arrays[where] = {
            "nan": np.array([(0.0, 0, 0), (np.nan, 0, 0), (2, 0, 0)]),
            "one_point": np.array([(0.0, 0, 0)]),
            "zero_length": np.array([(1.0, 1, 1)] * 3),
            "underflowing_squares": np.array([(0.0, 0, 0), (1e-200, 0, 0)]),
        }[bad]
        with pytest.raises(InvalidStreamlineError):
            pack(arrays)

    def test_counts_must_cover_the_buffer(self):
        with pytest.raises(InvalidStreamlineError):
            StreamlineSet(np.zeros((5, 3)) + np.arange(5)[:, None], [2, 2])

    def test_take_copies_rows_without_validating_them_again(self, monkeypatch):
        arrays = adversarial_polylines(np.random.default_rng(4))
        sset = pack(arrays)
        rows = [6, 0, 5, 2, 0]

        def fail(points, offsets):
            raise AssertionError("take validated its rows again")

        monkeypatch.setattr(streamline_mod, "_validate", fail)
        out = sset.take(rows)
        assert out.points.tobytes() == np.concatenate([arrays[r] for r in rows]).tobytes()
        assert list(out.offsets) == list(np.cumsum([0] + [len(arrays[r]) for r in rows]))
        assert not np.shares_memory(out.points, sset.points)


class TestIteration:
    """What iterating over a set yields: its streamlines' points, one (c, 3)
    view into the buffer each, in set order. Counting the points of a set by
    summing len() over it relies on this."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_yields_views_that_tile_the_buffer(self, seed):
        sset = pack(adversarial_polylines(np.random.default_rng(seed)))
        views = list(sset)
        assert len(views) == len(sset)
        assert all(isinstance(v, np.ndarray) and v.shape[1:] == (3,) for v in views)
        assert [len(v) for v in views] == sset.counts.tolist()
        assert sum(len(v) for v in sset) == len(sset.points)
        assert all(np.shares_memory(v, sset.points) for v in views)
        assert np.array_equal(np.concatenate(views), sset.points)

    def test_empty_set_yields_nothing(self):
        sset = pack([])
        assert len(sset) == 0 and list(sset) == []


@st.composite
def int_arrays(draw):
    """int32 or int64 arrays of up to 300 values, empty ones included, drawn
    from {-1, 0, 1}, from -3..3 or from the whole range of the type."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    spread = draw(st.sampled_from([1, 3, int(np.iinfo(dtype).max)]))
    return draw(hnp.arrays(dtype, st.integers(0, 300), elements=st.integers(-spread, spread)))


class TestDistinct:
    """The sort-based kernel that replaces np.unique, against np.unique."""

    @given(int_arrays())
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, a):
        got, want = _distinct(a), np.unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_edges(self, dtype):
        info = np.iinfo(dtype)
        for a in ([], [7], [5] * 1000, [info.min, info.max, 0, -1, info.min, info.max],
                  np.arange(50)[::-1], np.arange(50).reshape(5, 10) % 7):
            a = np.asarray(a, dtype=dtype)
            got, want = _distinct(a), np.unique(a)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_leaves_input_untouched(self):
        a = np.array([3, 1, 3, 2])
        _distinct(a)
        assert a.tolist() == [3, 1, 3, 2]


def whole_block_validate(points, offsets):
    """streamline._validate as written before it ran one axis at a time: the
    same checks in the same order, over (block, 3) temporaries."""
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidStreamlineError(f"expected (n, 3) points, got shape {points.shape}")
    if offsets[-1] != len(points):
        raise InvalidStreamlineError(f"point counts add up to {offsets[-1]}, not {len(points)}")
    if (np.diff(offsets) < 2).any():
        raise InvalidStreamlineError("streamline needs at least two points")
    for lo, hi in streamline_mod.blocks(offsets):
        base = offsets[lo]
        pts = points[base : offsets[hi]]
        if not np.isfinite(pts).all():
            raise InvalidStreamlineError("streamline contains non-finite coordinates")
        sq = pts[1:] - pts[:-1]
        sq *= sq
        moved = np.concatenate([[0], np.cumsum((sq[:, 0] > 0) | (sq[:, 1] > 0) | (sq[:, 2] > 0))])
        if (moved[offsets[lo + 1 : hi + 1] - 1 - base] == moved[offsets[lo:hi] - base]).any():
            raise InvalidStreamlineError("streamline has zero arc length")


def validation_error(check, points, offsets):
    try:
        check(points, offsets)
    except InvalidStreamlineError as exc:
        return str(exc)
    return None


@st.composite
def flawed_sets(draw):
    """(points, offsets, budget): up to 8 streamlines of 1 to 6 points whose
    coordinates repeat often (zero-length segments), underflow when squared,
    or are not finite, and a block budget that splits them."""
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, -2.5, 1e-200, math.nan, math.inf])
    points = draw(hnp.arrays(np.float64, (sum(counts), 3), elements=values))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return points, offsets, draw(st.integers(1, 12))


class TestValidate:
    @given(flawed_sets())
    @settings(max_examples=400, deadline=None)
    def test_raises_what_the_whole_block_form_raises(self, case):
        points, offsets, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streamline_mod, "BLOCK_POINTS", budget)
            want = validation_error(whole_block_validate, points, offsets)
            assert validation_error(streamline_mod._validate, points, offsets) == want

    def test_scratch_is_one_float_per_block_point(self, traced_peak):
        # Four full blocks of 1001-point streamlines; the check holds one
        # float and two flags per point of a block, and a few bytes per
        # streamline, also when it rounds the points to float32 one axis of
        # one block at a time.
        rng = np.random.default_rng(9)
        budget = streamline_mod.BLOCK_POINTS
        counts = np.full(4 * budget // 1001, 1001)
        points = rng.uniform(-50.0, 50.0, (counts.sum(), 3))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for as_float32 in (False, True):
            _, peak = traced_peak(streamline_mod._validate, points, offsets, as_float32=as_float32)
            assert peak <= 10 * budget + 64 * len(counts) + 4096, as_float32

    @pytest.mark.parametrize("message, far", [
        ("zero arc length", [[1e10, 0.0, 0.0], [1e10 + 1.0, 0.0, 0.0]]),
        ("non-finite", [[0.0, 0.0, 0.0], [1e39, 0.0, 0.0]]),
    ])
    def test_rounded_check_is_that_of_the_float32_copy(self, message, far):
        # Valid at float64, not at float32: one step float32 cannot resolve,
        # and one coordinate beyond its range (no RuntimeWarning on overflow).
        points, offsets = np.array(far), np.array([0, 2])
        streamline_mod._validate(points, offsets)
        with pytest.raises(InvalidStreamlineError, match=message):
            streamline_mod._validate(points, offsets, as_float32=True)
        # The reader's check of the float64 values of those words agrees.
        with np.errstate(over="ignore"):
            single = points.astype(np.float32)
        with pytest.raises(InvalidStreamlineError, match=message):
            streamline_mod._validate(streamline_mod._float64(single), offsets)

