import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from muscletract import streamline
from muscletract.architecture import (
    LineOfAction,
    _median,
    _pennation_angles,
    group_fractions,
    line_of_action,
    muscle_length,
    muscle_volume,
    summarize,
    tract_ends,
)
from muscletract.errors import DegenerateGeometryError, EmptyDomainError, InvalidSpecError
from muscletract.grid import VoxelMask
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import seeds_3d
from reference_streamline import arc_length, pack


def pennation(points, loa):
    """_pennation_angles of the chord of one tract."""
    pts = np.asarray(points, dtype=float)
    return _pennation_angles((pts[-1] - pts[0])[None], loa.direction)[0]


def segment_cloud(rng, n, direction, spread, length=20.0):
    """n parallel-ish segments whose endpoints form a line-dominant cloud."""
    direction = np.asarray(direction, dtype=float)
    direction /= np.linalg.norm(direction)
    out = []
    for _ in range(n):
        c = rng.normal(0, spread, 3)
        out.append(np.array([c - length / 2 * direction, c + length / 2 * direction]))
    return pack(out)


def _rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestMuscleVolume:
    def test_unit_cube_grid(self):
        assert muscle_volume(VoxelMask(np.ones((10, 10, 10), dtype=bool))) == 1000.0

    def test_anisotropic_voxel(self):
        occ = np.ones((1, 1, 1), dtype=bool)
        mask = VoxelMask(occ, voxel_size=(1.6, 1.6, 3.0))
        assert muscle_volume(mask) == pytest.approx(7.68)

    def test_ellipsoid_within_5pct_of_analytic(self):
        x, y, z = np.meshgrid(*[np.arange(n) + 0.5 for n in (20, 20, 60)], indexing="ij")
        occ = ((x - 10) / 10) ** 2 + ((y - 10) / 10) ** 2 + ((z - 30) / 30) ** 2 <= 1
        got = muscle_volume(VoxelMask(occ))
        want = 4 / 3 * math.pi * 10 * 10 * 30
        assert got == pytest.approx(want, rel=0.05)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyDomainError):
            muscle_volume(VoxelMask(np.zeros((2, 2, 2), dtype=bool)))


class TestLineOfAction:
    def test_collinear_endpoints_r2_one(self):
        sls = [[(0, 0, float(i)), (0, 0, i + 5.0)] for i in range(4)]
        loa = line_of_action(*pack(sls).endpoints())
        assert loa.r2 == pytest.approx(1.0, abs=1e-12)
        assert loa.source == "endpoint_fit"
        assert abs(loa.direction @ [0, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_spherical_scatter_falls_back(self):
        rng = np.random.default_rng(8)
        sls = []
        for _ in range(60):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            sls.append(np.array([20 * u, -20 * u + rng.normal(0, 0.1, 3)]))
        loa = line_of_action(*pack(sls).endpoints())
        assert loa.r2 < 0.5
        assert loa.source == "mean_direction"
        assert np.linalg.norm(loa.direction) == pytest.approx(1.0, abs=1e-12)

    def test_mean_direction_ignores_which_end_a_tract_starts_at(self):
        # Short tracts along z over a wide disc: their endpoints form no
        # line, so the mean chord is used, and every other tract runs down.
        # Each chord is sign-aligned with the first before they are averaged.
        rng = np.random.default_rng(9)
        sls = []
        for i in range(40):
            c = np.append(rng.uniform(-20.0, 20.0, 2), 0.0)
            d = np.append(rng.normal(0.0, 0.05, 2), 1.0)
            sls.append(np.array([c - d, c + d])[:: 1 if i % 2 else -1])
        loa = line_of_action(*pack(sls).endpoints())
        assert loa.source == "mean_direction"
        assert abs(loa.direction[2]) > 0.99

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(4)
        sset = segment_cloud(rng, 40, (0.3, 0.1, 1.0), spread=2.0)
        loa = line_of_action(*sset.endpoints())
        pts = np.array([p for s in sset for p in (s[0], s[-1])])
        centered = pts - pts.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / len(pts))
        want_dir = evecs[:, -1]
        want_r2 = 1 - (evals[0] + evals[1]) / evals.sum()
        assert abs(abs(loa.direction @ want_dir) - 1.0) < 1e-9
        assert loa.r2 == pytest.approx(want_r2, abs=1e-9)

    def test_needs_three_streamlines(self):
        sls = [[(0, 0, 0), (0, 0, 1)], [(1, 0, 0), (1, 0, 1)]]
        with pytest.raises(DegenerateGeometryError):
            line_of_action(*pack(sls).endpoints())

    def test_r2_invariant_to_similarity_transform(self):
        rng = np.random.default_rng(14)
        sset = segment_cloud(rng, 30, (0.2, 0.5, 1.0), spread=3.0)
        loa = line_of_action(*sset.endpoints())
        rot = _rotation(rng)
        shift = rng.uniform(-50, 50, 3)
        scale = 2.7
        moved = pack([scale * (s @ rot.T) + shift for s in sset])
        loa2 = line_of_action(*moved.endpoints())
        assert loa2.r2 == pytest.approx(loa.r2, abs=1e-9)

    def test_threshold_crossing_controls_source(self):
        rng = np.random.default_rng(15)
        sset = segment_cloud(rng, 40, (0, 0, 1.0), spread=1.0)
        r2 = line_of_action(*sset.endpoints()).r2
        assert line_of_action(*sset.endpoints(), r2_threshold=r2 - 1e-6).source == "endpoint_fit"
        assert line_of_action(*sset.endpoints(), r2_threshold=r2 + 1e-6).source == "mean_direction"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_rejected(self, bad):
        sset = segment_cloud(np.random.default_rng(15), 10, (0, 0, 1.0), spread=1.0)
        with pytest.raises(InvalidSpecError):
            line_of_action(*sset.endpoints(), r2_threshold=bad)


class TestPennationAngle:
    def test_parallel_zero(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        assert pennation([(0, 0, 0), (0, 0, 10)], loa) == pytest.approx(0.0)

    def test_perpendicular_ninety(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        assert pennation([(0, 0, 0), (10, 0, 0)], loa) == pytest.approx(90.0)

    def test_directionless(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        up = pennation([(0, 0, 0), (5, 0, 10)], loa)
        down = pennation([(5, 0, 10), (0, 0, 0)], loa)
        assert up == down
        assert 0.0 <= up <= 90.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(16)
        chord = rng.uniform(-10, 10, (2, 3))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        loa = LineOfAction(d, 1.0, "endpoint_fit")
        base = pennation(chord, loa)
        for _ in range(5):
            rot = _rotation(rng)
            loa_r = LineOfAction(rot @ d, 1.0, "endpoint_fit")
            got = pennation(chord @ rot.T, loa_r)
            assert got == pytest.approx(base, abs=1e-9)

    def test_phantom_ten_degrees_against_ground_truth_loa(self, reconstructed):
        spec = PhantomSpec()
        mask, field, gt = make_phantom(spec)
        sset = reconstructed(field, mask, seeds_3d(mask, 3.0))
        loa = LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
        first, last = sset.endpoints()
        pas = _pennation_angles(last - first, loa.direction)
        assert np.abs(np.array(pas) - 10.0).max() < 1.0
        assert abs(np.median(pas) - 10.0) < 0.5


class TestMuscleLength:
    def test_single_parallel_tract(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        sset = pack([[(3, 3, 0), (3, 3, 60)]])
        assert muscle_length(sset, loa) == 60.0

    def test_offset_tracts_same_projection(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        sset = pack([[(0, 0, 0), (0, 0, 60)], [(10, 5, 0), (10, 5, 60)]])
        assert muscle_length(sset, loa) == 60.0

    def test_phantom_ml_matches_mask_extent(self, reconstructed):
        spec = PhantomSpec()
        mask, field, gt = make_phantom(spec)
        sset = reconstructed(field, mask, seeds_3d(mask, 3.0))
        loa = LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
        assert muscle_length(sset, loa) == pytest.approx(60.0, rel=0.02)


# Projects 480 000 points, whole and in blocks whose edges fall on odd rows,
# so that the blocks start at every alignment the whole buffer's rows have.
BLOCKED_PROJECTION = """
import numpy as np
from muscletract import streamline
from muscletract.architecture import LineOfAction, muscle_length

rng = np.random.default_rng(12)
counts = 2 * rng.integers(1, 400, size=1200) + 1
sset = streamline.StreamlineSet(rng.uniform(-80.0, 80.0, (counts.sum(), 3)), counts)
loa = LineOfAction(np.array([0.36, -0.48, 0.8]), 1.0, "endpoint_fit")
whole = sset.points @ loa.direction
for budget in (streamline.BLOCK_POINTS, 1 << 10, 93):
    streamline.BLOCK_POINTS = budget
    ranges = list(streamline.blocks(sset.offsets))
    assert len(ranges) > 1 and any(sset.offsets[lo] % 2 for lo, _ in ranges)
    blocked = np.concatenate(
        [sset.points[sset.offsets[lo] : sset.offsets[hi]] @ loa.direction for lo, hi in ranges])
    assert blocked.tobytes() == whole.tobytes()
    assert muscle_length(sset, loa) == float(whole.max() - whole.min())
"""


class TestBlockedMuscleLength:
    """muscle_length projects one block at a time; each point's projection
    must round as in one product over the whole buffer."""

    @pytest.mark.parametrize("threads", ["1", None])
    def test_equals_the_whole_buffer_projection(self, threads):
        # BLAS reads its thread count when it loads: one interpreter each.
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", BLOCKED_PROJECTION], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_scratch_does_not_grow_with_the_set(self, monkeypatch, traced_peak):
        # A small block budget keeps the sets small; the blocks it makes are
        # full whichever set is measured.
        monkeypatch.setattr(streamline, "BLOCK_POINTS", 1 << 12)
        rng = np.random.default_rng(6)
        mask = VoxelMask(np.ones((4, 4, 4), dtype=bool))
        line = np.linspace((0.0, 0.0, 0.0), (6.0, 2.0, 60.0), 2001)
        tracts = [line + rng.normal(0.0, 0.5, (len(line), 3)) for _ in range(60)]

        def scratch(copies):
            sset = pack(tracts * copies)
            def arch():
                first, last, lengths = tract_ends(sset)
                return summarize(mask, first, last, lengths, sset, line_of_action(first, last))

            return traced_peak(arch)[1]

        one, two = scratch(1), scratch(2)
        assert two < 1.1 * one


class TestStreamedTracts:
    """tract_ends, muscle_length and summarize over an iterable of sets that
    hold the tracts in turn, as the `arch` command reads them, equal the
    same over the whole set, bit for bit."""

    @pytest.mark.parametrize("budget", [1, 97, streamline.BLOCK_POINTS])
    def test_stream_equals_the_whole_set(self, reconstructed, monkeypatch, budget):
        mask, field, _ = make_phantom(PhantomSpec(shape="curved_arc", jitter_deg=1.0, seed=3))
        sset = reconstructed(field, mask, seeds_3d(mask, 2.0))
        monkeypatch.setattr(streamline, "BLOCK_POINTS", budget)

        def stream():
            return (sset.take(np.arange(lo, hi)) for lo, hi in streamline.blocks(sset.offsets))

        assert len(list(stream())) > 1
        ends, whole = tract_ends(stream()), tract_ends(sset)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ends, whole))
        loa = line_of_action(*ends[:2])
        assert muscle_length(stream(), loa) == muscle_length(sset, loa)
        a, b = summarize(mask, *ends, stream(), loa), summarize(mask, *whole, sset, loa)
        assert (a.fl_median, a.ml, a.pa_median, a.pcsa) == (b.fl_median, b.ml, b.pa_median, b.pcsa)

    def test_empty_stream(self):
        first, last, lengths = tract_ends(iter([]))
        assert first.shape == last.shape == (0, 3) and lengths.shape == (0,)
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        with pytest.raises(EmptyDomainError):
            muscle_length(iter([]), loa)
        with pytest.raises(EmptyDomainError):
            summarize(VoxelMask(np.ones((2, 2, 2), dtype=bool)), first, last, lengths, iter([]), loa)


class TestMedian:
    """The median that summarize uses, against np.median, bit for bit."""

    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True))))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median(self, x):
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.median(x))
            got = _median(x.tolist())
        assert got == want or math.isnan(got) and math.isnan(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(want)


class TestSummarize:
    def _mask(self, volume_voxels=1000):
        return VoxelMask(np.ones((10, 10, 10), dtype=bool))

    def test_pcsa_cos0(self):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 0.95, "endpoint_fit")
        sset = pack([[(5, 5, -20), (5, 5, 30)]] * 3)
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.mv == 1000.0
        assert arch.fl_median == 50.0
        assert arch.pa_median == pytest.approx(0.0)
        assert arch.pcsa == pytest.approx(20.0)

    def test_pcsa_cos60(self):
        d = np.array([0.0, math.sin(math.radians(60)), math.cos(math.radians(60))])
        sset = pack([[(5, 5, 5), (5, 5 + 50 * d[1], 5 + 50 * d[2])]] * 3)
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 0.5, "mean_direction")
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.pa_median == pytest.approx(60.0)
        assert arch.pcsa == pytest.approx(1000.0 * 0.5 / 50.0)

    def test_pcsa_identity_exact(self):
        rng = np.random.default_rng(19)
        sset = segment_cloud(rng, 9, (0.2, 0, 1.0), spread=2.0)
        loa = line_of_action(*sset.endpoints())
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.pcsa == arch.mv * math.cos(math.radians(arch.pa_median)) / arch.fl_median
        assert arch.fl_ml_ratio == arch.fl_median / arch.ml

    def test_high_r2_classifies_pennate(self):
        # endpoint clouds with r2 ~ 0.95 read as a linear arrangement
        rng = np.random.default_rng(20)
        sset = segment_cloud(rng, 40, (0, 0, 1.0), spread=1.5)
        loa = line_of_action(*sset.endpoints())
        assert loa.r2 > 0.9
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.arch_type == "pennate"

    def test_low_r2_classifies_non_pennate(self):
        rng = np.random.default_rng(8)
        sls = []
        for _ in range(60):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            sls.append(np.array([20 * u, -20 * u + rng.normal(0, 0.1, 3)]))
        sset = pack(sls)
        loa = line_of_action(*sset.endpoints())
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.arch_type == "non_pennate"

    def test_median_of_odd_list_is_an_element(self):
        lengths = [10.0, 30.0, 20.0]
        sset = pack([[(0, 0, 0), (0, 0, L)] for L in lengths])
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        arch = summarize(self._mask(), *tract_ends(sset), sset, loa)
        assert arch.fl_median == 20.0


class TestScaleLaw:
    def test_pcsa_scales_quadratically(self, reconstructed):
        spec1 = PhantomSpec(dims_mm=(20, 12, 60))
        spec2 = PhantomSpec(dims_mm=(40, 24, 120))
        results = []
        for spec, spacing in ((spec1, 2.0), (spec2, 4.0)):
            mask, field, gt = make_phantom(spec)
            sset = reconstructed(field, mask, seeds_3d(mask, spacing))
            loa = LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
            results.append(summarize(mask, *tract_ends(sset), sset, loa))
        a, b = results
        assert b.mv == pytest.approx(8 * a.mv, rel=1e-12)
        assert b.fl_median == pytest.approx(2 * a.fl_median, rel=0.02)
        assert b.pcsa == pytest.approx(4 * a.pcsa, rel=0.03)


class TestFlMlBand:
    def test_aponeurosis_spanning_phantom_in_physiological_band(self, reconstructed):
        # fibers cross wall to wall: FL = W / sin(theta), ML ~ L
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=25.0, dims_mm=(10, 8, 60))
        mask, field, gt = make_phantom(spec)
        sset = reconstructed(field, mask, seeds_3d(mask, 2.0))
        loa = LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
        arch = summarize(mask, *tract_ends(sset), sset, loa)
        assert 0.2 <= arch.fl_ml_ratio <= 0.6

    def test_ratio_at_most_one_for_axis_parallel_tracts(self, reconstructed):
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=0.0, dims_mm=(10, 8, 40))
        mask, field, gt = make_phantom(spec)
        sset = reconstructed(field, mask, seeds_3d(mask, 2.0))
        loa = LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
        arch = summarize(mask, *tract_ends(sset), sset, loa)
        assert 0.0 < arch.fl_ml_ratio <= 1.0


class TestGroupFractions:
    def _arch(self, mv, pcsa):
        loa = LineOfAction(np.array([0.0, 0.0, 1.0]), 1.0, "endpoint_fit")
        return arch_with(mv, pcsa, loa)

    def test_single_record(self):
        fr = group_fractions([("flexors", self._arch(100.0, 10.0))])
        assert fr.volume_fraction == {"flexors": 1.0}
        assert fr.pcsa_fraction == [1.0]

    def test_quarter_split(self):
        fr = group_fractions(
            [("a", self._arch(100.0, 5.0)), ("b", self._arch(300.0, 5.0))]
        )
        assert fr.volume_fraction["a"] == pytest.approx(0.25)
        assert fr.volume_fraction["b"] == pytest.approx(0.75)

    def test_three_muscles_match_ratio_oracle(self):
        mvs = [120.0, 250.0, 630.0]
        pcsas = [12.0, 20.0, 8.0]
        records = [
            ("g1", self._arch(mvs[0], pcsas[0])),
            ("g1", self._arch(mvs[1], pcsas[1])),
            ("g2", self._arch(mvs[2], pcsas[2])),
        ]
        fr = group_fractions(records)
        assert fr.volume_fraction["g1"] == pytest.approx((120 + 250) / 1000, abs=1e-15)
        assert fr.pcsa_fraction[0] == pytest.approx(12 / 32, abs=1e-15)
        assert fr.pcsa_fraction[1] == pytest.approx(20 / 32, abs=1e-15)
        assert fr.pcsa_fraction[2] == pytest.approx(1.0, abs=1e-15)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(23)
        records = [
            (f"g{i % 3}", self._arch(float(rng.uniform(50, 500)), float(rng.uniform(5, 50))))
            for i in range(12)
        ]
        fr = group_fractions(records)
        assert sum(fr.volume_fraction.values()) == pytest.approx(1.0, abs=1e-12)
        groups = [g for g, _ in records]
        for g in set(groups):
            total = sum(f for grp, f in zip(groups, fr.pcsa_fraction) if grp == g)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDomainError):
            group_fractions([])


def arch_with(mv, pcsa, loa):
    from muscletract.architecture import MuscleArchitecture

    return MuscleArchitecture(
        mv=mv, fl_median=30.0, ml=60.0, fl_ml_ratio=0.5, pa_median=10.0,
        pcsa=pcsa, loa=loa, arch_type="pennate",
    )


class TestBatchedMatchesOneTractAtATime:
    """summarize reads FL, PA and ML from the packed buffer; each must equal,
    bit for bit, the value computed one tract at a time."""

    def tracts(self, reconstructed):
        mask, field, _ = make_phantom(PhantomSpec(shape="curved_arc", jitter_deg=1.0, seed=3))
        return mask, reconstructed(field, mask, seeds_3d(mask, 2.0))

    def test_summarize(self, reconstructed):
        mask, sset = self.tracts(reconstructed)
        loa = line_of_action(*sset.endpoints())
        arch = summarize(mask, *tract_ends(sset), sset, loa)
        # One tract at a time, in float64 arithmetic, as the library computes.
        tracts = [s.astype(np.float64) for s in sset]

        def angle(s):
            chord = s[-1] - s[0]
            cos = abs(float(chord @ loa.direction) / np.linalg.norm(chord))
            return math.degrees(math.acos(min(1.0, cos)))

        assert arch.fl_median == float(np.median([arc_length(s) for s in tracts]))
        assert arch.pa_median == float(np.median([angle(s) for s in tracts]))
        first, last = sset.endpoints()
        assert _pennation_angles(last - first, loa.direction) == [angle(s) for s in tracts]
        proj = np.concatenate([s @ loa.direction for s in tracts])
        assert arch.ml == float(proj.max() - proj.min())
