"""The STRL file is the one place where points are float32. A set holds
float64 points whatever it is built from; the writer validates the float32
words it will write, and refuses exactly what the reader rejects on the
float64 values of those words; a file read back, whole or one block at a
time, holds the float64 of its words and gives every consumer the same bits
either way."""

import numpy as np
import pytest

import muscletract.streamline as streamline_mod
from muscletract.architecture import line_of_action, muscle_length, summarize, tract_ends
from muscletract.cli import _framed
from muscletract.errors import FrameMismatchError, InvalidStreamlineError
from muscletract.formats import StreamlineFile, load_streamlines, save_streamlines
from muscletract.metrics import density
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import FSSConfig, fss_select, seeds_3d
from muscletract.streamline import StreamlineSet, _float64, _resample_set, _validate, arc_lengths
from muscletract.tracking import reconstruct_batches


@pytest.fixture(scope="module")
def tracks(tmp_path_factory):
    """A jittered arc's mask, the STRL file that the `track` command writes
    for it, and that file loaded whole."""
    spec = PhantomSpec(shape="curved_arc", arc_radius_mm=14.0, arc_sweep_deg=100.0,
                       arc_thickness_mm=6.0, dims_mm=(20.0, 12.0, 20.0), jitter_deg=0.8, seed=5)
    mask, field, _ = make_phantom(spec)
    path = tmp_path_factory.mktemp("tracks") / "tracks.strl"
    save_streamlines(path, reconstruct_batches(field, mask, seeds_3d(mask, 1.5)))
    whole = load_streamlines(path)
    assert len(whole) > 100
    return mask, path, whole


def by_blocks(path):
    """The sets of a file, one per block, as the commands read them."""
    with StreamlineFile(path) as strl:
        yield from strl.sets()


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def joined(parts, fn):
    """fn of every part, each of its results concatenated over the parts."""
    results = [fn(p) for p in parts]
    return [np.concatenate(r) for r in zip(*results)]


# A small block budget reads the file in many blocks.
@pytest.fixture(params=[streamline_mod.BLOCK_POINTS, 1 << 9], ids=["default_blocks", "small_blocks"])
def budget(request, monkeypatch):
    monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", request.param)


@pytest.mark.usefixtures("budget")
class TestConsumersAreBitIdentical:
    """Every consumer gives the same bits for a file read one block at a
    time (StreamlineFile.sets) as for the file loaded whole."""

    def test_endpoints_and_blocks(self, tracks):
        _, path, whole = tracks
        parts = list(by_blocks(path))
        assert len(parts) == len(list(streamline_mod.blocks(whole.offsets)))
        for a, b in zip(joined(parts, StreamlineSet.endpoints), whole.endpoints()):
            assert same(a, b) and a.dtype == np.float64
        assert same(np.concatenate([p.block(0, len(p)) for p in parts]), whole.points)

    def test_lengths(self, tracks):
        _, path, whole = tracks
        (got,) = joined(by_blocks(path), lambda p: [arc_lengths(p.points, p.offsets)])
        assert same(got, arc_lengths(whole.points, whole.offsets))

    @pytest.mark.parametrize("m", [2, 12])
    def test_resampling(self, tracks, m):
        _, path, whole = tracks
        for a, b in zip(joined(by_blocks(path), lambda p: _resample_set(p, m)), _resample_set(whole, m)):
            assert same(a, b)

    def test_scattered_points(self, tmp_path):
        # Far-apart points of many point counts, which a small budget reads
        # in blocks of streamlines of mixed counts.
        rng = np.random.default_rng(8)
        counts = rng.integers(2, 40, 300)
        path = tmp_path / "s.strl"
        save_streamlines(path, StreamlineSet(rng.uniform(-50, 50, (counts.sum(), 3)), counts))
        whole = load_streamlines(path)
        for a, b in zip(joined(by_blocks(path), lambda p: _resample_set(p, 12)), _resample_set(whole, 12)):
            assert same(a, b)
        a, b = fss_select(by_blocks(path), FSSConfig(k=50)), fss_select(whole, FSSConfig(k=50))
        assert same(a.selected_ids, b.selected_ids) and same(a.selection_distance, b.selection_distance)

    def test_fss(self, tracks):
        _, path, whole = tracks
        for rule in ("longest", "index"):
            a = fss_select(by_blocks(path), FSSConfig(k=40, init_rule=rule))
            b = fss_select(whole, FSSConfig(k=40, init_rule=rule))
            assert same(a.selected_ids, b.selected_ids)
            assert same(a.selection_distance, b.selection_distance)
            assert a.mdf_evaluations == b.mdf_evaluations

    def test_density(self, tracks):
        mask, path, whole = tracks
        for support in ("all", "nonzero"):
            (da, ta), (db, tb) = density(by_blocks(path), mask, support), density(whole, mask, support)
            assert same(da.counts, db.counts) and ta == tb

    def test_architecture(self, tracks):
        mask, path, whole = tracks
        ends = tract_ends(by_blocks(path))
        assert all(same(a, b) for a, b in zip(ends, tract_ends(whole)))
        loa = line_of_action(*ends[:2])
        assert muscle_length(by_blocks(path), loa) == muscle_length(whole, loa)
        a, b = summarize(mask, *ends, by_blocks(path), loa), summarize(mask, *ends, whole, loa)
        assert (a.fl_median, a.ml, a.pa_median, a.pcsa) == (b.fl_median, b.ml, b.pa_median, b.pcsa)

    def test_frame_check(self, tracks, tmp_path):
        mask, path, whole = tracks
        assert all(same(a.points, b.points) for a, b in zip(_framed(by_blocks(path), mask), by_blocks(path)))
        assert list(_framed([whole], mask)) == [whole]
        save_streamlines(tmp_path / "far.strl", StreamlineSet(whole.points + 500.0, whole.counts))
        for sets in (by_blocks(tmp_path / "far.strl"), [load_streamlines(tmp_path / "far.strl")]):
            with pytest.raises(FrameMismatchError):
                list(_framed(sets, mask))

    def test_copies_write_the_records(self, tracks, tmp_path):
        # Writing a loaded set, its blocks or a copy of its rows gives the
        # bytes of the file's records.
        _, path, whole = tracks
        rows = np.arange(len(whole))[::-2]
        save_streamlines(tmp_path / "whole.strl", whole)
        save_streamlines(tmp_path / "blocks.strl", by_blocks(path))
        for out in ("whole.strl", "blocks.strl"):
            assert (tmp_path / out).read_bytes() == path.read_bytes()
        save_streamlines(tmp_path / "take.strl", whole.take(rows))
        with StreamlineFile(path) as strl:
            strl.copy(tmp_path / "copy.strl", rows)
        assert (tmp_path / "take.strl").read_bytes() == (tmp_path / "copy.strl").read_bytes()

    def test_loads_words_as_float64(self, tracks):
        _, path, whole = tracks
        raw = np.frombuffer(path.read_bytes(), dtype="<u4", offset=12)
        heads = np.cumsum(np.concatenate([[0], 3 * whole.counts[:-1] + 1]))
        words = np.delete(raw, heads).view("<f4").reshape(-1, 3)
        assert same(whole.points, words.astype(np.float64))
        assert whole.points.flags.c_contiguous
        parts = list(by_blocks(path))
        assert all(p.points.dtype == np.float64 for p in parts)
        assert same(np.concatenate([p.points for p in parts]), whole.points)


class TestValidation:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (-np.inf, "non-finite"),
        (None, "zero arc length"),
    ])
    def test_same_error_at_either_dtype(self, bad, message):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 2, 0], [5, 5, 5], [5, 5, 5]], dtype=float)
        if bad is not None:
            pts[3, 1] = bad
        for dtype in (np.float32, np.float64):
            with pytest.raises(InvalidStreamlineError, match=message):
                StreamlineSet(pts.astype(dtype), [2, 2, 2])

    def test_float32_verdict_is_that_of_its_float64_copy(self):
        # The writer's check of float64 points at their float32 rounding
        # against the reader's check of the float64 values of the words it
        # writes, on sets drawn from two or three of these values per
        # coordinate array, so that repeated points are common: signed
        # zeros, subnormal steps, neighbours one float32 ulp apart, float64
        # values that round together, the largest float32s, values that
        # round beyond them, and non-finite values.
        f32 = np.finfo(np.float32)
        one = np.float32(1.0)
        pool = np.array([0.0, -0.0, 2.0**-149, -(2.0**-149), 2.0**-148, 2.0**-151, f32.tiny, 1.0,
                         float(np.nextafter(one, np.float32(2))), 1.0 + 2.0**-30, 1.0 - 2.0**-40,
                         float(f32.max), -float(f32.max), 3.5e38, -1e39, np.nan, np.inf, -np.inf])
        rng = np.random.default_rng(9)

        def verdict(check, *args):
            try:
                check(*args)
            except InvalidStreamlineError as e:
                return str(e)
            return "valid"

        seen = set()
        for _ in range(3000):
            counts = rng.integers(2, 5, rng.integers(1, 4))
            values = rng.choice(pool[: 13 if rng.random() < 0.8 else None], rng.integers(2, 4))
            p64 = values[rng.integers(0, len(values), (counts.sum(), 3))]
            offsets = np.concatenate([[0], np.cumsum(counts)])
            with np.errstate(over="ignore"):
                words = p64.astype(np.float32)
            got = verdict(_validate, p64, offsets, True)
            assert got == verdict(StreamlineSet, _float64(words), counts), p64
            seen.add(got)
        assert seen == {"valid", "streamline contains non-finite coordinates",
                        "streamline has zero arc length"}

    def test_subnormal_steps(self):
        # A float32 step of 2**-149 moves; a float64 step whose square
        # underflows does not, as (seg * seg).sum(1) has it.
        step = np.array([[0, 0, 0], [2.0**-149, 0, 0]])
        StreamlineSet(step.astype(np.float32), [2])
        StreamlineSet(step, [2])
        with pytest.raises(InvalidStreamlineError, match="zero arc length"):
            StreamlineSet(step * 2.0**-400, [2])

    def test_float32_check_makes_no_float64_copy(self, traced_peak):
        rng = np.random.default_rng(10)
        counts = np.full(4000, 50)
        p64 = np.cumsum(rng.uniform(0.1, 1.0, (counts.sum(), 3)), axis=0)
        assert len(p64) > 3 * streamline_mod.BLOCK_POINTS
        offsets = np.concatenate([[0], np.cumsum(counts)])
        _, peak = traced_peak(_validate, p64, offsets, as_float32=True)
        # A float64 copy of one coordinate of a block alone takes 8 bytes per point.
        assert peak < 8 * streamline_mod.BLOCK_POINTS

    def test_signaling_nan_raises_no_warning(self):
        # 0x7f800001 is a signaling NaN; converting it to float64 raises the
        # invalid-operation flag, which must not surface as a RuntimeWarning.
        pts = np.array([[0, 0, 0], [1, 0, 0]], dtype=np.float32)
        pts.view(np.uint32)[1, 2] = 0x7F800001
        with pytest.raises(InvalidStreamlineError, match="non-finite"):
            StreamlineSet(pts, [2])
        assert np.isnan(_float64(pts)[1, 2])

    def test_other_dtypes_become_float64(self):
        pts = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.float64)
        for other in (pts.tolist(), pts.astype(np.float32), pts.astype(">f4"), pts.astype(">f8"),
                      pts.astype(np.int32)):
            got = StreamlineSet(other, [2]).points
            assert got.dtype == np.float64 and got.dtype.isnative and np.array_equal(got, pts)
        assert StreamlineSet(pts, [2]).points is pts and _float64(pts) is pts
