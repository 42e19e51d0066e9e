import logging

import numpy as np
import pytest

import muscletract as mt
from muscletract.errors import (
    ArityError,
    EmptyDomainError,
    InsufficientExtentError,
    InvalidSpecError,
)
import muscletract.streamline as streamline_mod
from muscletract.formats import StreamlineFile, load_streamlines, save_streamlines
from muscletract.grid import VoxelMask
from muscletract.sampling import FSSConfig, SeedSet, fss_select, seeds_2d, seeds_3d
from muscletract.streamline import _resample_set, mdf_rows
from reference_streamline import arc_length, mdf, pack, resample


def mdf_to_one(stack, q):
    """MDF from every streamline of an (n, m, 3) stack to one (m, 3) streamline."""
    return mdf_rows(stack.transpose(2, 1, 0), q)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def naive_farthest_first(cands, k, m=12, init_rule="longest"):
    """O(n^2 k) reference: explicit min-over-selected scan per step, scalar
    MDF; ties break to the first in set order. Returns positions."""
    streamlines = list(cands)
    rs = [resample(s, m) for s in streamlines]
    n = len(rs)
    pair = [[mdf(rs[i], rs[j]) for j in range(n)] for i in range(n)]
    if init_rule == "longest":
        best = 0
        for i in range(1, n):
            if arc_length(streamlines[i]) > arc_length(streamlines[best]):
                best = i
    else:
        best = 0
    selected = [best]
    for _ in range(k - 1):
        cand, cand_d = None, -1.0
        for i in range(n):
            if i in selected:
                continue
            dmin = min(pair[i][j] for j in selected)
            if dmin > cand_d:
                cand, cand_d = i, dmin
        selected.append(cand)
    return selected


def unpruned_fss(cands, k, m=12, init_rule="longest"):
    """Incremental farthest-first loop that evaluates MDF from every pick to
    every candidate: the update fss_select prunes, with nothing skipped."""
    stack, _ = _resample_set(cands, m)
    first = int(np.argmax([arc_length(s) for s in cands])) if init_rule == "longest" else 0
    picks, dists = [first], [np.inf]
    dmin = mdf_to_one(stack, stack[first])
    dmin[first] = -np.inf
    for _ in range(1, k):
        j = int(np.argmax(dmin))
        picks.append(j)
        dists.append(dmin[j])
        np.minimum(dmin, mdf_to_one(stack, stack[j]), out=dmin)
        dmin[j] = -np.inf
    return np.array(picks), np.array(dists)


def lattice_scan_count(mask, spacing):
    """Exhaustive voxel-by-voxel membership scan mirroring the stride rule."""
    stride = [max(1, round(spacing / v)) for v in mask.voxel_size]
    occ = mask.occupied_indices()
    lo = occ.min(axis=0)
    count = 0
    for idx in occ:
        if all((idx[a] - lo[a]) % stride[a] == 0 for a in range(3)):
            count += 1
    return count


def straight(x0, y0, length, n=12):
    # n=12 with uniform spacing makes resample(s, 12) reproduce the points
    # exactly, so an exact flipped duplicate has MDF exactly 0
    z = np.linspace(0.0, length, n)
    return np.column_stack([np.full(n, x0), np.full(n, y0), z])


# ---------------------------------------------------------------------------
# seeds_3d
# ---------------------------------------------------------------------------

class TestSeedSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, bad):
        with pytest.raises(InvalidSpecError, match="seed points must be finite"):
            SeedSet([[1.0, 1.0, 1.0], [bad, 1.0, 1.0]])


class TestSeeds3D:
    def test_full_lattice_10cube(self):
        mask = VoxelMask(np.ones((10, 10, 10), dtype=bool))
        seeds = seeds_3d(mask, 1.0)
        assert len(seeds) == 1000

    def test_single_voxel_always_contributes_center(self):
        occ = np.zeros((8, 8, 8), dtype=bool)
        occ[3, 5, 7] = True  # odd indices defeat an origin-anchored stride
        mask = VoxelMask(occ)
        seeds = seeds_3d(mask, 2.0)
        assert len(seeds) == 1
        assert np.allclose(seeds.points[0], [3.5, 5.5, 7.5])

    def test_ellipsoid_matches_exhaustive_scan(self):
        x, y, z = np.meshgrid(*[np.arange(n) + 0.5 for n in (20, 20, 30)], indexing="ij")
        occ = ((x - 10) / 9) ** 2 + ((y - 10) / 9) ** 2 + ((z - 15) / 14) ** 2 <= 1
        mask = VoxelMask(occ)
        seeds = seeds_3d(mask, 2.0)
        assert len(seeds) == lattice_scan_count(mask, 2.0)

    def test_all_seeds_in_mask(self):
        rng = np.random.default_rng(0)
        occ = rng.random((12, 9, 14)) > 0.6
        occ[4, 4, 4] = True
        mask = VoxelMask(occ)
        seeds = seeds_3d(mask, 3.0)
        assert mask.points_in_mask(seeds.points).all()

    def test_empty_mask_rejected(self):
        mask = VoxelMask(np.zeros((4, 4, 4), dtype=bool))
        with pytest.raises(EmptyDomainError):
            seeds_3d(mask, 1.0)

    def test_bad_spacing_rejected(self):
        mask = VoxelMask(np.ones((4, 4, 4), dtype=bool))
        with pytest.raises(InvalidSpecError):
            seeds_3d(mask, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_spacing_rejected(self, bad):
        mask = VoxelMask(np.ones((4, 4, 4), dtype=bool))
        with pytest.raises(InvalidSpecError):
            seeds_3d(mask, bad)


# ---------------------------------------------------------------------------
# seeds_2d
# ---------------------------------------------------------------------------

def _mask_z_slices(lo, hi, nx=6, ny=6, nz=50):
    occ = np.zeros((nx, ny, nz), dtype=bool)
    occ[:, :, lo : hi + 1] = True
    return VoxelMask(occ)


class TestSeeds2D:
    def test_even_spacing_0_to_40(self):
        mask = _mask_z_slices(0, 40, nz=41)
        seeds = seeds_2d(mask, 5)
        zs = np.unique(np.floor(seeds.points[:, 2]).astype(int))
        assert list(zs) == [0, 10, 20, 30, 40]

    def test_all_slices_when_n_equals_count(self):
        mask = _mask_z_slices(2, 9, nz=16)
        seeds = seeds_2d(mask, 8)
        zs = np.unique(np.floor(seeds.points[:, 2]).astype(int))
        assert list(zs) == list(range(2, 10))

    def test_slices_3_to_17_match_arithmetic_oracle(self):
        mask = _mask_z_slices(3, 17, nz=30)
        seeds = seeds_2d(mask, 5)
        zs = sorted(np.unique(np.floor(seeds.points[:, 2]).astype(int)))
        oracle = sorted({round(3 + (17 - 3) * i / 4) for i in range(5)})
        assert zs == oracle
        one = seeds_2d(mask, 1)  # a single slice is the first occupied one
        assert np.unique(np.floor(one.points[:, 2])).tolist() == [3]

    def test_one_seed_per_inmask_voxel_center(self):
        mask = _mask_z_slices(0, 40, nz=41)
        seeds = seeds_2d(mask, 5)
        assert len(seeds) == 5 * 6 * 6
        assert mask.points_in_mask(seeds.points).all()

    def test_insufficient_extent(self):
        mask = _mask_z_slices(4, 6, nx=2, ny=2, nz=12)  # z is the long axis
        with pytest.raises(InsufficientExtentError):
            seeds_2d(mask, 5)

    def test_ties_prefer_z(self):
        seeds = seeds_2d(VoxelMask(np.ones((9, 9, 9), dtype=bool)), 5)
        assert np.unique(np.floor(seeds.points[:, 2])).tolist() == [0, 2, 4, 6, 8]
        assert len(np.unique(seeds.points[:, 0])) == 9

    def test_longitudinal_axis_detection(self):
        occ = np.zeros((50, 6, 6), dtype=bool)
        occ[0:41] = True  # x is the long axis here
        seeds = seeds_2d(VoxelMask(occ), 5)
        xs = np.unique(np.floor(seeds.points[:, 0]).astype(int))
        assert list(xs) == [0, 10, 20, 30, 40]


# ---------------------------------------------------------------------------
# fss_select
# ---------------------------------------------------------------------------

def small_candidates():
    # two near-duplicates, one exact flipped duplicate, two distant
    a = straight(0.0, 0.0, 27.5)
    a_near = a + [0.05, 0, 0]
    a_flip = a[::-1].copy()
    far1 = straight(20.0, 0.0, 16.5)
    far2 = straight(0.0, 20.0, 22.0)
    return pack([a, a_near, a_flip, far1, far2])


class TestFSSFilter:
    def test_exhaustion_returns_all_in_traversal_order(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=5))
        assert sorted(trace.selected_ids) == [0, 1, 2, 3, 4]

    def test_k1_longest_wins(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=1))
        assert trace.selected_ids[0] == 0  # 27.5 mm beats the rest

    def test_k1_longest_tie_breaks_to_lowest_position(self):
        a = straight(0.0, 0.0, 20.0)
        b = straight(5.0, 0.0, 20.0)
        c = straight(9.0, 0.0, 12.0)
        trace = fss_select(pack([c, b, a]), FSSConfig(k=1))
        assert trace.selected_ids[0] == 1

    def test_index_init_rule(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=1, init_rule="index"))
        assert trace.selected_ids[0] == 0

    def test_matches_naive_oracle_on_handbuilt_set(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=3))
        want = naive_farthest_first(cands, 3)
        assert list(trace.selected_ids) == want

    def test_matches_naive_oracle_on_random_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            sls = []
            for _ in range(18):
                start = rng.uniform(0, 30, 3)
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                stops = np.linspace(0, rng.uniform(5, 40), 6)
                sls.append(start + stops[:, None] * direction)
            cands = pack(sls)
            for k in (1, 5, 18):
                trace = fss_select(cands, FSSConfig(k=k))
                assert list(trace.selected_ids) == naive_farthest_first(cands, k)

    def test_selection_distance_monotone(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=5))
        d = trace.selection_distance
        assert d[0] == np.inf
        assert (np.diff(d[1:]) <= 1e-12).all()

    def test_separation_bound(self):
        rng = np.random.default_rng(3)
        sls = [np.cumsum(rng.uniform(-2, 2, (6, 3)) + [1, 0, 0], axis=0) for _ in range(25)]
        cands = pack(sls)
        trace = fss_select(cands, FSSConfig(k=10))
        stack, _ = _resample_set(cands.take(trace.selected_ids), 12)
        final = trace.selection_distance[-1]
        for i in range(len(stack)):
            d = mdf_to_one(stack, stack[i])
            d[i] = np.inf
            assert d.min() >= final - 1e-12

    def test_duplicate_suppression(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=5))
        picks = list(trace.selected_ids)
        # 1 (near-dup) and 2 (exact flip of 0) trail every distinct streamline
        assert picks[0] == 0
        assert set(picks[1:3]) == {3, 4}
        assert trace.selection_distance[picks.index(2)] == 0.0

    def test_determinism(self):
        cands = small_candidates()
        r1 = fss_select(cands, FSSConfig(k=4))
        r2 = fss_select(cands, FSSConfig(k=4))
        assert list(r1.selected_ids) == list(r2.selected_ids)
        assert np.array_equal(r1.selection_distance, r2.selection_distance)

    def test_k_exceeding_candidates_rejected(self):
        cands = small_candidates()
        with pytest.raises(ArityError):
            fss_select(cands, FSSConfig(k=8))

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            FSSConfig(k=0)
        with pytest.raises(InvalidSpecError):
            FSSConfig(k=float("nan"))
        with pytest.raises(InvalidSpecError):
            FSSConfig(m=1)
        with pytest.raises(InvalidSpecError):
            FSSConfig(init_rule="random")

    def test_output_keeps_original_geometry(self):
        cands = small_candidates()
        trace = fss_select(cands, FSSConfig(k=2))
        streamlines = list(cands)
        for pos, s in zip(trace.selected_ids.tolist(), cands.take(trace.selected_ids)):
            assert np.array_equal(s, streamlines[pos])


# ---------------------------------------------------------------------------
# pruned update vs unpruned loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def arc_candidates(reconstructed):
    spec = mt.PhantomSpec(
        shape="curved_arc", arc_radius_mm=13.0, arc_sweep_deg=90.0, arc_thickness_mm=5.0,
        dims_mm=(20.0, 26.0, 20.0), jitter_deg=0.8, seed=1,
    )
    mask, field, _ = mt.make_phantom(spec)
    return reconstructed(field, mask, mt.seeds_3d(mask, 1.0))


def adversarial_candidates(rng):
    """Nine straight 40 mm lines on an integer grid (the longest, tied in arc
    length), random polylines, and exact duplicates and reversed copies of
    some of them, in shuffled order."""
    arrays = [straight(float(x), float(y), 40.0) for x in range(3) for y in range(3)]
    for _ in range(25):
        start = rng.uniform(0, 20, 3)
        arrays.append(start + np.cumsum(rng.uniform(-2, 2, (int(rng.integers(2, 9)), 3)), axis=0))
    for i in rng.choice(len(arrays), 12, replace=False):
        arrays.append(arrays[i].copy())
        arrays.append(arrays[i][::-1].copy())
    return pack([arrays[i] for i in rng.permutation(len(arrays))])


class TestPrunedUpdate:
    @pytest.mark.parametrize("m", [11, 12])
    def test_matches_unpruned_loop_on_phantom(self, arc_candidates, m):
        n, k = len(arc_candidates), 500
        assert n > 1500
        trace = fss_select(arc_candidates, FSSConfig(k=k, m=m))
        picks, dists = unpruned_fss(arc_candidates, k, m)
        assert np.array_equal(trace.selected_ids, picks)
        assert np.array_equal(trace.selection_distance, dists)
        assert trace.mdf_evaluations <= 0.05 * n * k  # the pruning skips work here

    @pytest.mark.parametrize("m", [2, 3, 12, 17])
    @pytest.mark.parametrize("init_rule", ["longest", "index"])
    def test_matches_unpruned_loop_on_adversarial_sets(self, m, init_rule):
        rng = np.random.default_rng(m)
        for _ in range(3):
            cands = adversarial_candidates(rng)
            n = len(cands)
            lengths = [arc_length(s) for s in cands]
            assert lengths.count(max(lengths)) >= 9  # the longest rule meets a tie
            for k in (1, 9, n // 2, n):
                trace = fss_select(cands, FSSConfig(k=k, m=m, init_rule=init_rule))
                picks, dists = unpruned_fss(cands, k, m, init_rule)
                assert np.array_equal(trace.selected_ids, picks)
                assert np.array_equal(trace.selection_distance, dists)



def assert_matches_unpruned(cands, ks, m=12):
    for init_rule in ("longest", "index"):
        for k in ks:
            trace = fss_select(cands, FSSConfig(k=k, m=m, init_rule=init_rule))
            picks, dists = unpruned_fss(cands, k, m, init_rule)
            assert np.array_equal(trace.selected_ids, picks), (init_rule, k)
            assert np.array_equal(trace.selection_distance, dists), (init_rule, k)


def wiggly(rng, n_points=12, offset=0.0):
    return offset + np.cumsum(rng.uniform(-1.0, 1.0, (n_points, 3)) + [0.0, 0.0, 1.0], axis=0)


def centroid_gaps(cands, m=12):
    """|mean(a) - mean(b)| and MDF(a, b) over all pairs of a set, by the oracle."""
    rs = [resample(s, m) for s in cands]
    cen = np.array([r.points.mean(axis=0) for r in rs])
    gap = np.linalg.norm(cen[:, None] - cen[None], axis=2)
    return gap, np.array([[mdf(a, b) for b in rs] for a in rs])


class TestCentroidBound:
    """Sets where MDF(a, b) = |mean(a) - mean(b)| in exact arithmetic, so only
    the margin keeps the pruned traversal equal to the unpruned one."""

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_translated_copies(self, offset):
        rng = np.random.default_rng(5)
        base = resample(wiggly(rng, 40, offset), 12).points
        shifts = rng.normal(size=(30, 3)) * rng.choice([1e-3, 0.1, 3.0], (30, 1))
        shifts[5] = shifts[4] * 2.0  # collinear shifts: one copy between two others
        shifts = np.concatenate([np.zeros((1, 3)), shifts])
        cands = pack([base + t for t in shifts])
        gap, d = centroid_gaps(cands)
        assert np.allclose(d, gap, rtol=1e-9, atol=1e-9 * (1.0 + offset))  # the bound is tight
        assert_matches_unpruned(cands, (1, 2, 9, len(cands) // 2, len(cands)))

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_symmetric_translations(self, offset):
        # Clusters {x - t, x, x + t}: in exact arithmetic x is |t| from both
        # neighbours, by MDF and by centroids alike. When both neighbours are
        # picked before x, rounding alone decides whether the second pick
        # lowers dmin[x].
        rng = np.random.default_rng(21)
        arrays = []
        for _ in range(60):
            x = resample(wiggly(rng, 30, offset), 12).points + rng.uniform(-80, 80, 3)
            t = rng.normal(size=3) * rng.choice([1e-3, 0.1, 1.0])
            arrays += [x - t, x, x + t]
        cands = pack(arrays)
        assert_matches_unpruned(cands, (len(cands),))

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_reversed_and_translated_reversed_copies(self, offset):
        rng = np.random.default_rng(6)
        arrays = []
        for _ in range(8):
            a = resample(wiggly(rng, 25, offset), 12).points
            t = rng.normal(size=3) * 0.01
            arrays += [a, a[::-1].copy(), a + t, (a + t)[::-1].copy()]
        cands = pack(arrays)
        assert_matches_unpruned(cands, (1, 2, 8, 16, len(cands)))

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_symmetric_arcs_share_one_centroid(self, offset):
        # Arcs rotated about their common centroid, and point reflections of
        # them through it: every centroid distance is 0 (up to rounding), so
        # the bound skips nothing and the MDFs order the picks alone.
        t = np.linspace(0.0, np.pi, 12)
        arc = np.column_stack([10 * np.cos(t), 10 * np.sin(t), np.zeros(12)])
        arc -= arc.mean(axis=0)
        arrays = []
        for angle in np.linspace(0.0, np.pi, 7, endpoint=False):
            c, s_ = np.cos(angle), np.sin(angle)
            rot = arc @ np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]]).T
            arrays += [rot + offset, offset - rot, (rot + offset)[::-1].copy()]
        cands = pack(arrays)
        gap, d = centroid_gaps(cands)
        assert gap.max() < 1e-9 * (1.0 + offset) and d.max() > 5.0
        assert_matches_unpruned(cands, (1, 2, 5, len(cands)))

    @pytest.mark.parametrize("ints", [
        [[[9, -24, -17], [-20, -37, 29]], [[19, -36, 16], [15, -47, -47]], [[17, 36, -13], [14, -43, -44]]],
        [[[11, 16, 9], [35, 5, -3]], [[-18, 24, -23], [23, -23, -21]], [[9, -32, 24], [26, -27, -21]]],
        [[[-35, 21, 17], [3, 21, -31]], [[45, -37, -3], [-17, 26, -10]], [[40, 22, -44], [-17, 30, -10]]],
    ])
    def test_squared_differences_that_underflow(self, ints):
        # Three two-point streamlines at multiples of 2**-540 mm, which m = 2
        # resamples to themselves: every squared difference is a subnormal a
        # few units of 2**-1074 wide, so a computed MDF can fall below the
        # computed centroid distance, and only the margin's absolute part,
        # not its part relative to the coordinates, keeps the pick's third
        # distance.
        cands = pack(list(np.array(ints, dtype=float) * 2.0**-540))
        trace = fss_select(cands, FSSConfig(k=3, m=2, init_rule="index"))
        picks, dists = unpruned_fss(cands, 3, 2, "index")
        assert np.array_equal(trace.selected_ids, picks)
        assert np.array_equal(trace.selection_distance, dists)

    @pytest.mark.parametrize("m", [2, 3, 12, 17])
    def test_adversarial_sets_offset_by_1e4_mm(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(2):
            cands = adversarial_candidates(rng)
            far = pack([s + 1e4 for s in cands])
            assert_matches_unpruned(far, (1, 9, len(far) // 2, len(far)), m)


def sequential_length(points) -> float:
    """The segment lengths that arc_length sums pairwise, summed in sequence
    instead, as a cumulative chord length ends."""
    seg = np.diff(points, axis=0)
    return float(np.cumsum(np.sqrt((seg * seg).sum(axis=1)))[-1])


class TestLongestPick:
    def test_equal_lengths_by_different_sums(self):
        # Each streamline and its reverse have one arc length in exact
        # arithmetic; summed pairwise (arc_lengths) or in sequence they may
        # differ in the last bits, and in some sets the two sums rank the
        # candidates differently.
        rng = np.random.default_rng(8)
        disagree = 0
        for _ in range(40):
            arrays = []
            for _ in range(3):
                a = wiggly(rng, int(rng.integers(150, 400)))
                arrays += [a, a[::-1].copy()]
            cands = pack([arrays[i] for i in rng.permutation(len(arrays))])
            want = int(np.argmax([arc_length(s) for s in cands]))
            disagree += int(np.argmax([sequential_length(s) for s in cands])) != want
            trace = fss_select(cands, FSSConfig(k=1))
            assert trace.selected_ids[0] == want
            assert_matches_unpruned(cands, (len(cands),))
        assert disagree > 0  # a sequential sum would pick wrongly here


def block_sets(cands):
    """The candidates as a stream of sets, one streamline.blocks range each."""
    return (cands.take(np.arange(lo, hi)) for lo, hi in streamline_mod.blocks(cands.offsets))


class TestStreamedCandidates:
    """A stream of block sets and the whole set make one traversal, whatever
    the block budget."""

    def sets(self):
        rng = np.random.default_rng(4)
        yield adversarial_candidates(rng)  # nine tied for the longest
        for _ in range(4):
            # Each streamline and its reverse: equal lengths whose pairwise
            # and sequential sums can rank them differently.
            arrays = []
            for _ in range(3):
                a = wiggly(rng, int(rng.integers(150, 400)))
                arrays += [a, a[::-1].copy()]
            yield pack([arrays[i] for i in rng.permutation(len(arrays))])

    @pytest.mark.parametrize("budget", [1, 97, streamline_mod.BLOCK_POINTS])
    def test_stream_equals_the_whole_set(self, monkeypatch, budget):
        cases = [(cands, k, init_rule) for cands in self.sets()
                 for k in (1, 5, len(cands)) for init_rule in ("longest", "index")]
        wants = [fss_select(cands, FSSConfig(k=k, init_rule=rule)) for cands, k, rule in cases]
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        for (cands, k, rule), want in zip(cases, wants):
            for given in (cands, block_sets(cands)):
                got = fss_select(given, FSSConfig(k=k, init_rule=rule))
                assert np.array_equal(got.selected_ids, want.selected_ids)
                assert np.array_equal(got.selection_distance, want.selection_distance)
                assert got.mdf_evaluations == want.mdf_evaluations
            if rule == "longest":
                lengths = [arc_length(s) for s in cands]
                assert want.selected_ids[0] == int(np.argmax(lengths))

    @pytest.mark.parametrize("budget", [1, 97, streamline_mod.BLOCK_POINTS])
    def test_stream_read_from_a_file(self, arc_candidates, tmp_path, monkeypatch, budget):
        path = tmp_path / "c.strl"
        save_streamlines(path, arc_candidates)
        cfg = FSSConfig(k=200)
        want = fss_select(load_streamlines(path), cfg)
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        with StreamlineFile(path) as strl:
            got = fss_select(strl.sets(), cfg)
        assert np.array_equal(got.selected_ids, want.selected_ids)
        assert np.array_equal(got.selection_distance, want.selection_distance)
        assert got.mdf_evaluations == want.mdf_evaluations

    def test_a_sequential_sum_would_pick_wrongly(self):
        # The reversed pairs above tell the two sums apart.
        for cands in list(self.sets())[1:]:
            lengths = [arc_length(s) for s in cands]
            assert np.argmax([sequential_length(s) for s in cands]) != np.argmax(lengths)

    def test_empty_stream_and_k_over_n(self):
        with pytest.raises(EmptyDomainError):
            fss_select(iter(()), FSSConfig(k=1))
        with pytest.raises(ArityError, match="k=6 exceeds candidate count 5"):
            fss_select(block_sets(small_candidates()), FSSConfig(k=6))


class TestFSSLog:
    def test_one_info_line_with_the_evaluations(self, caplog):
        cands = small_candidates()
        with caplog.at_level(logging.INFO, logger="muscletract.sampling"):
            trace = fss_select(cands, FSSConfig(k=3))
        (record,) = [r for r in caplog.records if r.name == "muscletract.sampling"]
        assert record.levelno == logging.INFO
        share = 100.0 * trace.mdf_evaluations / 15
        assert record.getMessage() == (
            f"fss_select: 5 candidates, k=3; {trace.mdf_evaluations} MDF evaluations "
            f"({share:.2f}% of n*k)"
        )
