"""A float32-backed StreamlineSet, as load_streamlines returns, gives every
result bit for bit as the float64-backed set of the same values: each read
that feeds arithmetic converts to float64 first (streamline module
docstring)."""

import numpy as np
import pytest

import muscletract.streamline as streamline_mod
from muscletract.architecture import line_of_action, muscle_length, summarize, tract_ends
from muscletract.cli import _framed
from muscletract.errors import FrameMismatchError, InvalidStreamlineError
from muscletract.formats import load_streamlines, save_streamlines
from muscletract.metrics import density
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import FSSConfig, fss_select, seeds_3d
from muscletract.streamline import StreamlineSet, _float64, _lengths, _resample_set, arc_lengths


@pytest.fixture(scope="module")
def twins(reconstructed):
    """A jittered arc's reconstructed streamlines, float32-backed as
    load_streamlines reads them from the `track` command's file, and their
    float64-backed copy, with their mask."""
    spec = PhantomSpec(shape="curved_arc", arc_radius_mm=14.0, arc_sweep_deg=100.0,
                       arc_thickness_mm=6.0, dims_mm=(20.0, 12.0, 20.0), jitter_deg=0.8, seed=5)
    mask, field, _ = make_phantom(spec)
    single = reconstructed(field, mask, seeds_3d(mask, 1.5))
    double = StreamlineSet(single.points.astype(np.float64), single.counts)
    assert single.points.dtype == np.float32 and len(single) > 100
    return mask, single, double


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# A small block budget takes every blocked path through several blocks.
@pytest.fixture(params=[streamline_mod.BLOCK_POINTS, 1 << 9], ids=["default_blocks", "small_blocks"])
def budget(request, monkeypatch):
    monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", request.param)


@pytest.mark.usefixtures("budget")
class TestConsumersAreBitIdentical:
    def test_endpoints_and_blocks(self, twins):
        _, single, double = twins
        for a, b in zip(single.endpoints(), double.endpoints()):
            assert same(a, b) and a.dtype == np.float64
        assert same(single.block(3, 9), double.block(3, 9))

    def test_lengths(self, twins):
        _, single, double = twins
        assert same(arc_lengths(single.points, single.offsets), arc_lengths(double.points, double.offsets))
        rows = np.arange(0, len(single), 3)
        assert same(_lengths(single.points, single.offsets[rows], single.counts[rows]),
                    _lengths(double.points, double.offsets[rows], double.counts[rows]))

    @pytest.mark.parametrize("m", [2, 12])
    def test_resampling(self, twins, m):
        _, single, double = twins
        for a, b in zip(_resample_set(single, m), _resample_set(double, m)):
            assert same(a, b)

    def test_scattered_points(self):
        # Far-apart points, where a float32 difference of two coordinates
        # is inexact; along a track's short segments it mostly is exact.
        rng = np.random.default_rng(8)
        counts = rng.integers(2, 40, 300)
        p32 = rng.uniform(-50, 50, (counts.sum(), 3)).astype(np.float32)
        single, double = StreamlineSet(p32, counts), StreamlineSet(p32.astype(np.float64), counts)
        for a, b in zip(_resample_set(single, 12), _resample_set(double, 12)):
            assert same(a, b)
        assert same(arc_lengths(single.points, single.offsets), arc_lengths(double.points, double.offsets))
        a, b = fss_select(single, FSSConfig(k=50)), fss_select(double, FSSConfig(k=50))
        assert same(a.selected_ids, b.selected_ids) and same(a.selection_distance, b.selection_distance)

    def test_fss(self, twins):
        _, single, double = twins
        for rule in ("longest", "index"):
            a = fss_select(single, FSSConfig(k=40, init_rule=rule))
            b = fss_select(double, FSSConfig(k=40, init_rule=rule))
            assert same(a.selected_ids, b.selected_ids)
            assert same(a.selection_distance, b.selection_distance)
            assert a.mdf_evaluations == b.mdf_evaluations

    def test_density(self, twins):
        mask, single, double = twins
        for support in ("all", "nonzero"):
            (da, ta), (db, tb) = density(single, mask, support), density(double, mask, support)
            assert same(da.counts, db.counts) and ta == tb

    def test_architecture(self, twins):
        mask, single, double = twins
        loa_a, loa_b = line_of_action(*single.endpoints()), line_of_action(*double.endpoints())
        assert same(loa_a.direction, loa_b.direction) and loa_a.r2 == loa_b.r2
        assert muscle_length(single, loa_a) == muscle_length(double, loa_b)
        a = summarize(mask, *tract_ends(single), single, loa_a)
        b = summarize(mask, *tract_ends(double), double, loa_b)
        assert (a.fl_median, a.ml, a.pa_median, a.pcsa) == (b.fl_median, b.ml, b.pa_median, b.pcsa)

    def test_frame_check(self, twins):
        mask, single, double = twins
        assert list(_framed([single], mask)) == [single]
        assert list(_framed([double], mask)) == [double]
        far = [StreamlineSet(s.points + s.points.dtype.type(500), s.counts) for s in (single, double)]
        for sset in far:
            with pytest.raises(FrameMismatchError):
                list(_framed([sset], mask))

    def test_copies_keep_the_dtype(self, twins, tmp_path):
        _, single, double = twins
        rows = np.arange(len(single))[::-2]
        a, b = single.take(rows), double.take(rows)
        assert a.points.dtype == np.float32 and same(a.points.astype(np.float64), b.points)
        assert same(a.offsets, b.offsets)
        for x, y in ((single, double), (a, b)):
            save_streamlines(tmp_path / "a.strl", x)
            save_streamlines(tmp_path / "b.strl", y)
            assert (tmp_path / "a.strl").read_bytes() == (tmp_path / "b.strl").read_bytes()

    def test_loaded_set_is_the_float32_twin(self, twins, tmp_path):
        _, single, _ = twins
        save_streamlines(tmp_path / "s.strl", single)
        got = load_streamlines(tmp_path / "s.strl")
        assert same(got.points, single.points) and same(got.offsets, single.offsets)


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
        # Sets drawn from two or three of these values per coordinate array,
        # so that repeated points are common: signed zeros, subnormal steps,
        # neighbours one ulp apart, the largest float32s and non-finite values.
        f32 = np.finfo(np.float32)
        one = np.float32(1.0)
        pool = np.array([0.0, -0.0, 2.0**-149, -(2.0**-149), 2.0**-148, f32.tiny, one,
                         np.nextafter(one, np.float32(2)), f32.max, -f32.max,
                         np.nan, np.inf, -np.inf], dtype=np.float32)
        rng = np.random.default_rng(9)

        def verdict(points, counts):
            try:
                StreamlineSet(points, counts)
            except InvalidStreamlineError as e:
                return str(e)
            return "valid"

        seen = set()
        for _ in range(3000):
            counts = rng.integers(2, 5, rng.integers(1, 4))
            values = rng.choice(pool[: 10 if rng.random() < 0.8 else None], rng.integers(2, 4))
            p32 = values[rng.integers(0, len(values), (counts.sum(), 3))]
            got = verdict(p32, counts)
            assert got == verdict(p32.astype(np.float64), counts), p32
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
        p32 = np.cumsum(rng.uniform(0.1, 1.0, (counts.sum(), 3)), axis=0).astype(np.float32)
        assert len(p32) > 3 * streamline_mod.BLOCK_POINTS
        offsets = np.concatenate([[0], np.cumsum(counts)])
        _, peak = traced_peak(streamline_mod._validate, p32, offsets)
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
        for pts in ([[0, 0, 0], [1, 2, 3]], np.array([[0, 0, 0], [1, 2, 3]], dtype=">f4")):
            assert StreamlineSet(pts, [2]).points.dtype == np.float64
        pts = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.float64)
        assert StreamlineSet(pts, [2]).points is pts and _float64(pts) is pts
        pts = pts.astype(np.float32)
        assert StreamlineSet(pts, [2]).points is pts
