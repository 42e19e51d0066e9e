import itertools

import numpy as np
import pytest

from muscletract.errors import EmptyDomainError, InvalidSpecError
from muscletract.grid import VoxelMask
from muscletract.metrics import coverage, density
from reference_streamline import arc_length, pack


def fine_step_voxel_walk(points, mask, step=0.01):
    """Brute-force point-in-voxel walk at tiny fixed arc steps."""
    out = set()
    points = np.asarray(points, dtype=float)
    for a, b in zip(points[:-1], points[1:]):
        seg = b - a
        length = float(np.linalg.norm(seg))
        n = max(1, int(np.ceil(length / step)))
        for k in range(n + 1):
            p = a + (k / n) * seg
            idx = tuple(int(np.floor((p[i] - mask.origin[i]) / mask.voxel_size[i])) for i in range(3))
            if all(0 <= idx[i] < mask.dims[i] for i in range(3)) and mask.occupancy[idx]:
                out.add(idx)
    return out


def voxel_set(points, mask):
    """The in-mask voxels one polyline passes through, however briefly: those
    that density counts for a set of that one streamline."""
    counts = density(pack([points]), mask)[0].counts
    return set(map(tuple, np.argwhere(counts > 0).tolist()))


def full_mask(dims):
    return VoxelMask(np.ones(dims, dtype=bool))


class TestVoxelize:
    """The voxels that density counts for one streamline."""

    def test_straight_line_through_five_centers(self):
        mask = full_mask((5, 3, 3))
        got = voxel_set([(0.5, 1.5, 1.5), (4.5, 1.5, 1.5)], mask)
        assert got == {(x, 1, 1) for x in range(5)}

    def test_fully_outside_mask_empty(self):
        mask = full_mask((4, 4, 4))
        assert voxel_set([(10.0, 10.0, 10.0), (12.0, 12.0, 12.0)], mask) == set()

    def test_diagonal_matches_fine_step_oracle(self):
        mask = full_mask((4, 4, 4))
        pts = np.array([(0.13, 0.21, 0.07), (3.83, 3.42, 3.91)])
        assert voxel_set(pts, mask) == fine_step_voxel_walk(pts, mask)

    def test_random_polylines_match_oracle(self):
        # 0.5 um oracle step: the crossing-point implementation even catches
        # corner clips a 10 um walk skips
        rng = np.random.default_rng(12)
        mask = full_mask((6, 6, 6))
        for _ in range(8):
            pts = rng.uniform(0.2, 5.8, (5, 3))
            assert voxel_set(pts, mask) == fine_step_voxel_walk(pts, mask, step=0.0005)

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.8, 0.6, 0.0), (-0.48, 0.6, -0.64)])
    def test_far_vertex_counts_like_one_just_outside(self, direction):
        # Only the face planes of the grid have samples in it, so a vertex
        # 1e30 mm out counts what the same line stopped just outside counts.
        mask = full_mask((5, 4, 4))
        d = np.asarray(direction)
        near = [(0.5, 0.5, 0.5), (2.5, 1.5, 1.7)]
        out = 0.1 + min((np.where(d > 0, mask.dims, 0) - near[1])[d != 0] / d[d != 0])
        far = density(pack([near + [tuple(near[1] + 1e30 * d)]]), mask)
        moved = density(pack([near + [tuple(near[1] + out * d)]]), mask)
        assert not mask.points_in_mask(near[1] + out * d)[0]
        assert np.array_equal(far[0].counts, moved[0].counts) and far[1] == moved[1]

    def test_far_first_vertex_keeps_the_near_end(self):
        # From the far end, p0 + (p1 - p0) rounds the near end 2.5 mm to 0
        # and loses the crossings of x = 3 and x = 4; either way round the
        # streamline passes x voxels 0-4.
        mask = full_mask((5, 4, 4))
        pts = [(1e30, 2.5, 2.5), (2.5, 2.5, 2.5), (0.5, 2.5, 2.5)]
        want = {(x, 2, 2) for x in range(5)}
        assert voxel_set(pts, mask) == want
        assert voxel_set(pts[::-1], mask) == want

    def test_grazing_a_voxel_edge(self):
        # The line x + y = 2 + 1e-6 passes 7e-7 mm from the edge x = y = 1,
        # so it crosses voxel (1, 1) over 1.4e-6 mm: the samples 1e-7 mm
        # either side of its two face crossings land in it.
        mask = full_mask((3, 3, 1))
        pts = [(0.5, 1.5 + 1e-6, 0.5), (1.5 + 1e-6, 0.5, 0.5)]
        want = {(0, 1, 0), (1, 1, 0), (1, 0, 0)}
        assert voxel_set(pts, mask) == want
        assert voxel_set(pts[::-1], mask) == want

    def test_counts_once_per_voxel(self):
        mask = full_mask((5, 3, 3))
        # doubles back through the same voxels
        dmap, _ = density(pack([[(0.5, 1.5, 1.5), (4.5, 1.5, 1.5), (0.5, 1.5, 1.5)]]), mask)
        assert dmap.counts.max() == 1 and (dmap.counts > 0).sum() == 5


class TestCoverage:
    def test_full_coverage(self):
        mask = full_mask((5, 1, 1))
        sset = pack([[(0.5, 0.5, 0.5), (4.5, 0.5, 0.5)]])
        assert coverage(sset, mask) == 1.0

    def test_empty_set_zero(self):
        mask = full_mask((4, 4, 4))
        assert coverage(pack([]), mask) == 0.0

    def test_nine_of_ten(self):
        occ = np.zeros((10, 1, 1), dtype=bool)
        occ[:, 0, 0] = True
        mask = VoxelMask(occ)
        sset = pack([[(0.5, 0.5, 0.5), (8.5, 0.5, 0.5)]])
        assert coverage(sset, mask) == 0.9

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyDomainError):
            coverage(pack([]), VoxelMask(np.zeros((2, 2, 2), dtype=bool)))


class TestDensity:
    def test_uniform_crossings(self):
        mask = full_mask((5, 1, 1))
        line = [(0.5, 0.5, 0.5), (4.5, 0.5, 0.5)]
        sset = pack([line] * 3)
        dmap, tm = density(sset, mask)
        assert tm.sd_mean == 3.0
        assert tm.sdcv == 0.0
        assert tm.sc == 1.0
        assert (dmap.counts[:, 0, 0] == 3).all()

    def test_two_voxel_arithmetic(self):
        mask = full_mask((2, 1, 1))
        a = [(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)]  # crosses both
        b = [(1.2, 0.2, 0.2), (1.8, 0.8, 0.8)]  # second voxel only
        sset = pack([a, b, b])
        _, tm = density(sset, mask)
        # counts {1, 3}: mean 2, population sd 1, sdcv 0.5
        assert tm.sd_mean == 2.0
        assert tm.sdcv == 0.5

    def test_sdcv_matches_recount_oracle(self):
        rng = np.random.default_rng(5)
        mask = full_mask((8, 8, 8))
        sset = pack([rng.uniform(0.5, 7.5, (4, 3)) for _ in range(40)])
        dmap, tm = density(sset, mask)
        # independent recomputation from the count histogram via raw sums
        values, freq = np.unique(dmap.counts[mask.occupancy], return_counts=True)
        n = freq.sum()
        mean = (values * freq).sum() / n
        var = ((values - mean) ** 2 * freq).sum() / n
        assert tm.sdcv == pytest.approx(np.sqrt(var) / mean, abs=1e-12)
        assert tm.sc == (freq[values > 0].sum() / n)

    def test_undefined_sdcv_flagged(self):
        mask = full_mask((3, 3, 3))
        _, tm = density(pack([]), mask)
        assert not tm.sdcv_defined
        assert np.isnan(tm.sdcv)
        assert tm.sd_mean == 0.0

    def test_nonzero_support_switch(self):
        mask = full_mask((4, 1, 1))
        a = [(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)]
        sset = pack([a])
        _, tm_all = density(sset, mask, sdcv_support="all")
        _, tm_nz = density(sset, mask, sdcv_support="nonzero")
        assert tm_all.sd_mean == 0.5  # mean over all voxels regardless of support
        assert tm_nz.sd_mean == 0.5
        assert tm_nz.sdcv == 0.0  # the two crossed voxels both count 1
        assert tm_all.sdcv == 1.0  # counts {1,1,0,0}: sd 0.5 / mean 0.5

    def test_bad_support_rejected(self):
        mask = full_mask((2, 2, 2))
        with pytest.raises(InvalidSpecError):
            density(pack([]), mask, sdcv_support="some")

    def test_normalized_map_in_unit_range(self):
        mask = full_mask((5, 1, 1))
        sset = pack([[(0.5, 0.5, 0.5), (2.5, 0.5, 0.5)],
                              [(0.5, 0.5, 0.5), (4.5, 0.5, 0.5)]])
        dmap, _ = density(sset, mask)
        norm = dmap.normalized()
        assert norm.max() == 1.0
        assert norm.min() >= 0.0

    def test_counts_zero_outside_mask(self):
        occ = np.zeros((5, 5, 5), dtype=bool)
        occ[1:4, 1:4, 1:4] = True
        mask = VoxelMask(occ)
        sset = pack([[(0.5, 0.5, 0.5), (4.5, 4.5, 4.5)]])
        dmap, _ = density(sset, mask)
        assert (dmap.counts[~mask.occupancy] == 0).all()


class TestInvariants:
    def test_coverage_equals_nonzero_density_fraction(self):
        rng = np.random.default_rng(9)
        mask = full_mask((7, 7, 7))
        sset = pack([rng.uniform(0, 7, (5, 3)) for _ in range(12)])
        dmap, tm = density(sset, mask)
        assert tm.sc == coverage(sset, mask)
        assert tm.sc == (dmap.counts[mask.occupancy] > 0).sum() / mask.n_occupied

    def test_adding_streamline_monotone(self):
        rng = np.random.default_rng(10)
        mask = full_mask((6, 6, 6))
        sls = [rng.uniform(0, 6, (4, 3)) for _ in range(10)]
        prev_counts = np.zeros(mask.dims, dtype=int)
        prev_sc = 0.0
        for upto in range(1, 11):
            dmap, tm = density(pack(sls[:upto]), mask)
            assert (dmap.counts >= prev_counts).all()
            assert tm.sc >= prev_sc
            prev_counts, prev_sc = dmap.counts, tm.sc

    def test_reversal_invariance(self):
        rng = np.random.default_rng(11)
        mask = full_mask((6, 6, 6))
        pts = rng.uniform(0, 6, (7, 3))
        fwd = pack([pts])
        rev = pack([pts[::-1].copy()])
        a, _ = density(fwd, mask)
        b, _ = density(rev, mask)
        assert np.array_equal(a.counts, b.counts)

    def test_moving_crossing_to_empty_voxel_never_raises_sdcv(self):
        # enumerate 3-voxel count vectors; moving one crossing from the highest
        # voxel to a zero voxel must not increase std/mean
        def sdcv(c):
            c = np.asarray(c, dtype=float)
            return c.std() / c.mean()

        for counts in itertools.product(range(6), repeat=3):
            if sum(counts) == 0 or 0 not in counts or max(counts) < 2:
                continue
            src = counts.index(max(counts))
            dst = counts.index(0)
            moved = list(counts)
            moved[src] -= 1
            moved[dst] += 1
            assert sdcv(moved) <= sdcv(counts) + 1e-12


# ---------------------------------------------------------------------------
# the batched voxel-key kernel against one-streamline voxelization
# ---------------------------------------------------------------------------

import logging  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import muscletract.streamline as streamline_mod  # noqa: E402
import reference_streamline as ref  # noqa: E402


def aniso_mask(rng):
    """Anisotropic voxels with a non-zero origin, about two thirds occupied."""
    occ = rng.random((9, 7, 11)) < 0.65
    return VoxelMask(occ, voxel_size=(0.7, 1.3, 0.9), origin=(-2.5, 3.25, 1.0))


def adversarial_set(mask, rng):
    o, v = mask.origin, mask.voxel_size
    face = o + v * np.array([2.0, 3.0, 4.0])  # a voxel corner: on three faces at once
    arrays = [
        np.array([o + v * 0.5, o + v * 1.5]),  # 2-point line
        np.repeat(o + v * rng.uniform(0, 6, (8, 3)), 3, axis=0),  # repeated points
        np.array([face, face + v * [3.0, 0.0, 0.0], face + v * [3.0, 2.0, 0.0]]),  # on faces
        np.array([face + v * [0.0, 0.5, 0.0], face + v * [4.0, 0.5, 0.0]]),  # in a face plane
        np.array([o - 50.0, o - 40.0, o - 45.0]),  # wholly outside the mask
        o + v * np.cumsum(rng.normal(0, 0.05, (3000, 3)), axis=0) + v * 4,  # very long
        o + v * rng.uniform(-1, 8, (5, 3)),  # crosses the grid boundary
    ]
    return pack(arrays)


def assert_kernel_matches_reference(sset, mask):
    want = ref.density_counts(sset, mask)
    dmap, tm = density(sset, mask)
    assert np.array_equal(dmap.counts, want)
    assert coverage(sset, mask) == (want[mask.occupancy] > 0).sum() / mask.n_occupied
    for points in sset:
        alone = density(pack([points]), mask)[0].counts
        assert np.array_equal(np.argwhere(alone > 0), ref.voxelize(points, mask))


walks = st.lists(
    st.tuples(st.integers(2, 30), st.integers(0, 2**31 - 1), st.booleans()),
    min_size=0,
    max_size=10,
)


class TestKernelMatchesReference:
    @given(walks, st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_sets(self, specs, mask_seed):
        mask = aniso_mask(np.random.default_rng(mask_seed))
        sls = []
        for n, seed, snap in specs:
            rng = np.random.default_rng(seed)
            idx = np.cumsum(rng.uniform(-2, 2, (n, 3)), axis=0) + 4
            if snap:  # vertices on voxel faces
                idx = np.round(idx)
            pts = mask.origin + mask.voxel_size * idx
            if arc_length(pts) > 0:
                sls.append(pts)
        assert_kernel_matches_reference(pack(sls), mask)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adversarial_sets(self, seed):
        rng = np.random.default_rng(seed)
        mask = aniso_mask(rng)
        assert_kernel_matches_reference(adversarial_set(mask, rng), mask)

    @pytest.mark.parametrize("budget", [1, 3, 40])
    def test_counts_do_not_depend_on_the_block_budget(self, monkeypatch, budget):
        # A budget below the 3000-point streamline leaves it a block of its own.
        rng = np.random.default_rng(4)
        mask = aniso_mask(rng)
        sset = adversarial_set(mask, rng)
        want, tm = density(sset, mask)
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        got, tm_small = density(sset, mask)
        assert np.array_equal(got.counts, want.counts) and tm_small == tm
        assert np.array_equal(got.counts, ref.density_counts(sset, mask))

    def test_info_line_counts_streamlines_with_no_voxel(self, caplog):
        mask = full_mask((4, 4, 4))
        sset = pack([
            [(0.5, 0.5, 0.5), (3.5, 0.5, 0.5)],
            [(10.0, 10.0, 10.0), (12.0, 10.0, 10.0)],
            [(-3.0, 0.5, 0.5), (-1.0, 0.5, 0.5)],
        ])
        with caplog.at_level(logging.INFO, logger="muscletract.metrics"):
            density(sset, mask)
        (record,) = [r for r in caplog.records if r.name == "muscletract.metrics"]
        assert record.levelno == logging.INFO
        assert record.getMessage() == "density: 2 of 3 streamlines cross no in-mask voxel"


# ---------------------------------------------------------------------------
# density and coverage over a stream of sets
# ---------------------------------------------------------------------------

from muscletract.metrics import SDCV_SUPPORTS  # noqa: E402
from muscletract.phantom import PhantomSpec, make_phantom  # noqa: E402
from muscletract.sampling import seeds_3d  # noqa: E402


class TestStreamedDensity:
    """density and coverage over an iterable of sets that hold the
    streamlines in turn, as the `metrics` command reads them, equal the same
    over the whole set, bit for bit."""

    @pytest.fixture(scope="class")
    def arc(self, reconstructed):
        mask, field, _ = make_phantom(PhantomSpec(shape="curved_arc", jitter_deg=1.0, seed=3))
        sset = reconstructed(field, mask, seeds_3d(mask, 3.0))
        return mask, sset, ref.density_counts(sset, mask)

    @staticmethod
    def stream(sset):
        return (sset.take(np.arange(lo, hi)) for lo, hi in streamline_mod.blocks(sset.offsets))

    @pytest.mark.parametrize("support", SDCV_SUPPORTS)
    @pytest.mark.parametrize("budget", [1, 97, streamline_mod.BLOCK_POINTS])
    def test_stream_equals_the_whole_set(self, arc, monkeypatch, budget, support):
        mask, sset, want = arc
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        assert len(list(self.stream(sset))) > 1
        whole, tm = density(sset, mask, support)
        streamed, tm_streamed = density(self.stream(sset), mask, support)
        assert whole.counts.tobytes() == streamed.counts.tobytes() == want.tobytes()
        assert tm.sdcv_defined and tm_streamed == tm
        assert coverage(self.stream(sset), mask) == coverage(sset, mask) == tm.sc

    def test_streamlines_of_one_range_share_voxels(self):
        # Four streamlines in one key range: voxel (1, 1, 1) is crossed by
        # three of them and (2, 1, 1) by two, and each counts once per
        # streamline, as a count one streamline at a time has it.
        mask = full_mask((4, 4, 4))
        sset = pack([
            [(0.5, 1.5, 1.5), (2.5, 1.5, 1.5)],
            [(1.5, 0.5, 1.5), (1.5, 2.5, 1.5)],
            [(1.2, 1.2, 1.2), (2.7, 1.7, 1.7)],
            [(3.5, 3.5, 0.5), (3.5, 3.5, 2.5)],
        ])
        assert len(list(streamline_mod.blocks(sset.offsets, streamline_mod.BLOCK_POINTS // 8))) == 1
        counts = density(sset, mask)[0].counts
        assert counts.tobytes() == ref.density_counts(sset, mask).tobytes()
        assert counts[1, 1, 1] == 3 and counts[2, 1, 1] == 2 and counts.max() == 3

    def test_empty_stream(self):
        mask = full_mask((4, 4, 4))
        for support in SDCV_SUPPORTS:
            (streamed, tm), (whole, want) = density(iter([]), mask, support), density(pack([]), mask, support)
            assert streamed.counts.tobytes() == whole.counts.tobytes()
            assert (tm.sc, tm.sd_mean, tm.sdcv_defined) == (want.sc, want.sd_mean, want.sdcv_defined)
            assert np.isnan(tm.sdcv) and np.isnan(want.sdcv)
        assert coverage(iter([]), mask) == coverage(pack([]), mask) == 0.0

    def test_info_line_counts_the_streamlines_of_every_set(self, monkeypatch, caplog):
        mask = full_mask((4, 4, 4))
        sset = pack([
            [(0.5, 0.5, 0.5), (3.5, 0.5, 0.5)],
            [(10.0, 10.0, 10.0), (12.0, 10.0, 10.0)],
            [(-3.0, 0.5, 0.5), (-1.0, 0.5, 0.5)],
        ])
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 1)  # one streamline per set
        with caplog.at_level(logging.INFO, logger="muscletract.metrics"):
            density(sset, mask)
            density(self.stream(sset), mask)
        lines = [r.getMessage() for r in caplog.records if r.name == "muscletract.metrics"]
        assert lines == ["density: 2 of 3 streamlines cross no in-mask voxel"] * 2
