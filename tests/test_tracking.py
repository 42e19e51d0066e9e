import logging
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import reference_tracking as ref
from muscletract.errors import DegenerateGeometryError, InvalidSpecError
from muscletract.grid import UNIT_TOL, OrientationField, VoxelMask
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import SeedSet, seeds_3d
import muscletract.formats as formats_mod
import muscletract.streamline as streamline_mod
from muscletract.formats import save_streamlines
from muscletract.streamline import StreamlineSet, _validate, arc_lengths
from muscletract import tracking
from muscletract.tracking import (
    TrackingConfig,
    _Runs,
    _fit_cubic,
    _long_enough,
    _propagate,
    _ray_exits,
    _sorted_runs,
    _step_range,
    _surface_exits,
    _with_exits,
    _write_runs,
)
from reference_streamline import arc_length


def uniform_box(dims=(20, 20, 60), fa=0.5, direction=(0.0, 0.0, 1.0)):
    occ = np.ones(dims, dtype=bool)
    d = np.broadcast_to(np.asarray(direction, dtype=float), dims + (3,)).copy()
    f = np.full(dims, fa)
    return VoxelMask(occ), OrientationField(d, f)


def scalar_reference_track(field, mask, seed, cfg):
    """Independent step-by-step simulation of one bidirectional track."""

    def voxel(p):
        return tuple(int(math.floor((p[a] - mask.origin[a]) / mask.voxel_size[a])) for a in range(3))

    def in_mask(p):
        idx = voxel(p)
        return all(0 <= idx[a] < mask.dims[a] for a in range(3)) and bool(mask.occupancy[idx])

    def half(p0, d0):
        pts = []
        p = np.array(p0, dtype=float)
        prev = np.array(d0, dtype=float)
        cos_gate = math.cos(math.radians(cfg.max_angle_deg))
        while True:
            idx = voxel(p)
            v = np.array(field.directions[idx], dtype=float)
            if field.fa[idx] < cfg.fa_min:
                break
            if float(v @ prev) < 0:
                v = -v
            if float(v @ prev) < cos_gate:
                break
            nxt = p + cfg.step_mm * v
            if not in_mask(nxt):
                break
            pts.append(nxt.copy())
            p, prev = nxt, v
            if len(pts) > 100000:
                raise RuntimeError("runaway reference track")
        return pts

    idx = voxel(seed)
    v0 = np.array(field.directions[idx], dtype=float)
    fwd = half(seed, v0)
    bwd = half(seed, -v0)
    return np.array(bwd[::-1] + [np.asarray(seed, dtype=float)] + fwd)


def raw_set(field, mask, seeds, cfg=None):
    """The raw tracks of tracking._raw_blocks joined into one float64 set,
    built unvalidated as reconstruct_batches builds its sets, after the
    seeds are checked and those outside the mask skipped, as there: the
    tracks that ref.track computes one step at a time."""
    cfg = cfg or TrackingConfig()
    pts = tracking._seeds_in_mask(field, mask, seeds, cfg)
    points, counts = [np.empty((0, 3))], [np.empty(0, dtype=np.int64)]
    for block, starts, piece in tracking._raw_blocks(field, mask, pts, cfg):
        points += [block[a : a + c] for a, c in zip(starts.tolist(), piece.tolist())]
        counts.append(piece)
    return StreamlineSet._trusted(np.concatenate(points), streamline_mod._offsets(np.concatenate(counts)))


class TestTrack:
    def test_uniform_field_spans_mask(self):
        mask, field = uniform_box()
        seeds = SeedSet(np.array([[10.0, 10.0, 30.0]]))
        cfg = TrackingConfig()
        sset = raw_set(field, mask, seeds, cfg)
        assert len(sset) == 1
        length = arc_length(next(iter(sset)))
        assert abs(length - 60.0) <= 2 * cfg.step_mm

    def test_low_fa_seed_produces_nothing(self):
        mask, field = uniform_box(fa=0.05)
        seeds = SeedSet(np.array([[10.0, 10.0, 30.0]]))
        assert len(raw_set(field, mask, seeds)) == 0

    def test_seed_outside_mask_skipped(self):
        mask, field = uniform_box()
        seeds = SeedSet(np.array([[10.0, 10.0, 30.0], [100.0, 100.0, 100.0]]))
        sset = raw_set(field, mask, seeds)
        assert len(sset) == 1

    def test_step_over_mask_diagonal_rejected(self):
        mask, field = uniform_box(dims=(2, 2, 2))
        seeds = SeedSet([[0.5, 0.5, 0.5]])
        for step in (np.nextafter(mask.diagonal, np.inf), 1e20, 1e300):
            cfg = TrackingConfig(step_mm=float(step), min_length_mm=1e-3)
            with pytest.raises(InvalidSpecError, match="step_mm"):
                raw_set(field, mask, seeds, cfg)

    def test_step_just_under_mask_diagonal_runs(self):
        # One step along the diagonal from the origin corner lands in the
        # opposite corner voxel.
        mask, field = uniform_box(dims=(2, 2, 2), direction=np.ones(3) / math.sqrt(3.0))
        cfg = TrackingConfig(step_mm=mask.diagonal * (1 - 1e-9), min_length_mm=1.0)
        (got,) = raw_set(field, mask, SeedSet([[0.0, 0.0, 0.0]]), cfg)
        assert got.shape == (2, 3) and mask.world_to_index(got[1]).tolist() == [[1, 1, 1]]
        raw_set(field, mask, SeedSet([[0.0, 0.0, 0.0]]), replace(cfg, step_mm=mask.diagonal))

    def test_matches_scalar_reference_uniform(self):
        mask, field = uniform_box(dims=(8, 8, 30))
        cfg = TrackingConfig(min_length_mm=1.0)
        seeds = SeedSet(np.array([[4.5, 4.5, 15.5], [1.5, 2.5, 3.5]]))
        got = raw_set(field, mask, seeds, cfg)
        for s, seed in zip(got, seeds.points):
            want = scalar_reference_track(field, mask, seed, cfg)
            assert s.shape == want.shape
            assert np.abs(s - want).max() < 1e-9

    def test_matches_scalar_reference_curved(self):
        spec = PhantomSpec(shape="curved_arc", arc_radius_mm=20.0, arc_sweep_deg=80.0,
                           arc_thickness_mm=8.0, dims_mm=(10, 8, 10))
        mask, field, _ = make_phantom(spec)
        cfg = TrackingConfig(min_length_mm=1.0)
        seeds = seeds_3d(mask, 6.0)
        got = raw_set(field, mask, seeds, cfg)
        emitted = 0
        for seed in seeds.points:
            want = scalar_reference_track(field, mask, seed, cfg)
            if len(want) < 2:
                continue
            seg = np.diff(want, axis=0)
            if float(np.sqrt((seg * seg).sum(1)).sum()) < cfg.min_length_mm:
                continue
            s = list(got)[emitted]
            emitted += 1
            assert s.shape == want.shape
            assert np.abs(s - want).max() < 1e-9
        assert emitted == len(got)

    def test_tight_arc_trips_angle_gate(self):
        # voxel-to-voxel direction change ~ voxel/radius ~ 16 deg > 10 deg gate
        spec = PhantomSpec(shape="curved_arc", arc_radius_mm=3.5, arc_sweep_deg=180.0,
                           arc_thickness_mm=2.0, dims_mm=(4, 3, 4))
        mask, field, _ = make_phantom(spec)
        cfg = TrackingConfig()
        seeds = seeds_3d(mask, 1.0)
        got = raw_set(field, mask, seeds, cfg)
        counts = []
        for seed in seeds.points:
            want = scalar_reference_track(field, mask, seed, cfg)
            seg = np.diff(want, axis=0)
            ok = len(want) >= 2 and float(np.sqrt((seg * seg).sum(1)).sum()) >= cfg.min_length_mm
            counts.append(ok)
        assert len(got) == sum(counts)
        assert len(got) == 0  # every track dies at the gate before 10 mm

    def test_bidirectional_symmetry_in_uniform_field(self):
        mask, field = uniform_box()
        cfg = TrackingConfig()
        seeds = SeedSet(np.array([[10.5, 10.5, 30.5], [10.5, 10.5, 7.5]]))
        sset = raw_set(field, mask, seeds, cfg)
        a, b = sset
        for ends in (0, -1):
            assert np.abs(a[ends] - b[ends]).max() <= cfg.step_mm + 1e-9

    def test_all_points_inside_mask_and_min_length(self):
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=25.0, dims_mm=(14, 8, 40))
        mask, field, _ = make_phantom(spec)
        cfg = TrackingConfig()
        sset = raw_set(field, mask, seeds_3d(mask, 2.0), cfg)
        assert len(sset) > 0
        for s in sset:
            assert arc_length(s) >= cfg.min_length_mm
            assert mask.points_in_mask(s).all()

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            TrackingConfig(step_mm=0.0)
        with pytest.raises(InvalidSpecError):
            TrackingConfig(max_extrap_fraction=1.5)
        # cos(1000 deg) = cos(80 deg): an angle over 180 would silently gate at 80.
        with pytest.raises(InvalidSpecError, match="max_angle_deg"):
            TrackingConfig(max_angle_deg=1000.0)
        assert TrackingConfig(max_angle_deg=180.0).max_angle_deg == 180.0

    @pytest.mark.parametrize(
        "name", ["step_mm", "max_angle_deg", "fa_min", "min_length_mm", "max_extrap_fraction"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_config_rejected(self, name, bad):
        with pytest.raises(InvalidSpecError):
            TrackingConfig(**{name: bad})


def fit(points):
    """_fit_cubic of one track, and the RMS residual of the fit in mm."""
    pts = np.asarray(points, dtype=float)
    out = _fit_cubic(pts, np.vander(np.linspace(0.0, 1.0, len(pts)), 4, increasing=True))
    resid = out - pts
    return out, float(np.sqrt((resid * resid).sum(axis=1).mean()))


class TestFitPoly3:
    """The cubic fit that reconstruct_batches runs on every track of 5 or
    more points: each coordinate against the normalized point index t in
    [0, 1], sampled back at the same t. The tracker emits points at equal arc
    steps, so t is the normalized arc-length parameter, and a fixed grid
    makes the fit idempotent on its own output."""

    def test_exact_cubic_reproduced(self):
        u = np.linspace(0.0, 1.0, 40)
        pts = np.column_stack([1 + 2 * u - u**3, 0.5 * u**2 + u, 3 * u - 2 * u**2])
        fitted, rms = fit(pts)
        assert np.abs(fitted - pts).max() < 1e-9
        assert rms < 1e-9

    def test_straight_line_stays_straight(self):
        t = np.linspace(0.0, 30.0, 25)
        pts = np.column_stack([t * 0.2, t * 0.1, t])
        fitted, rms = fit(pts)
        assert np.abs(fitted - pts).max() < 1e-9
        assert rms < 1e-9

    def test_noisy_line_rms_and_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        n = 200
        t = np.linspace(0.0, 1.0, n)
        clean = np.column_stack([2 * t, np.zeros(n), 50 * t])
        noise = np.zeros((n, 3))
        noise[1:-1] = rng.normal(0, 0.1, (n - 2, 3))
        pts = clean + noise
        fitted, rms = fit(pts)
        noise_rms = float(np.sqrt((noise**2).sum(axis=1).mean()))
        assert rms <= noise_rms
        # independent normal-equations solve of the same least-squares problem
        design = np.vander(t, 4, increasing=True)
        coef = np.linalg.solve(design.T @ design, design.T @ pts)
        assert np.abs(fitted - design @ coef).max() < 1e-8

    def test_idempotent_on_own_output(self):
        t = np.linspace(0, np.pi / 2, 300)
        pts = np.column_stack([30 * np.cos(t), 0.1 * t, 30 * np.sin(t)])
        f1, _ = fit(pts)
        f2, _ = fit(f1)
        assert np.abs(f2 - f1).max() < 1e-9

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            fit([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])

    def test_preserves_point_count(self):
        rng = np.random.default_rng(2)
        pts = np.cumsum(rng.uniform(0, 1, (37, 3)), axis=0)
        fitted, _ = fit(pts)
        assert len(fitted) == 37


def extend(points, mask, cfg=None):
    """One track through _surface_exits and _with_exits, as
    reconstruct_batches runs them: the track with the exit points added at
    the ends that need one, and whether the added length is accepted."""
    pts = np.asarray(points, dtype=float)
    buf = np.concatenate([np.empty((1, 3)), pts, np.empty((1, 3))])
    starts, counts = np.array([1]), np.array([len(pts)])
    exits, ext, accepted, _ = _surface_exits(buf, starts, counts, mask, cfg or TrackingConfig())
    _with_exits(buf, starts, counts, exits, ext, np.array([0]))
    return buf, bool(accepted[0])


class TestExtrapolate:
    """Both endpoints extended along their terminal tangents to the mask
    surface; the extension is rejected when the added length exceeds
    max_extrap_fraction of the track's arc length."""

    def test_already_on_surface_unchanged(self):
        mask, _ = uniform_box(dims=(20, 20, 60))
        pts = np.column_stack([np.full(61, 10.0), np.full(61, 10.0), np.linspace(0.0, 60.0, 61)])
        out, accepted = extend(pts, mask)
        assert accepted
        assert np.array_equal(out, pts)

    def test_threshold_arithmetic_rejects(self):
        mask, _ = uniform_box(dims=(20, 20, 60))
        # 10 mm streamline ending 2 mm shy of each z face of a 14 mm-thick slab
        occ = np.zeros((20, 20, 60), dtype=bool)
        occ[:, :, 23:37] = True
        slab = VoxelMask(occ)
        z = np.linspace(25.0, 35.0, 101)
        out, accepted = extend(np.column_stack([np.full(101, 10.0), np.full(101, 10.0), z]), slab)
        assert not accepted  # 4 mm added on a 10 mm track: 0.4 > 0.30
        assert out[0, 2] == pytest.approx(23.0)
        assert out[-1, 2] == pytest.approx(37.0)

    def test_boundary_fraction_accepted(self):
        occ = np.zeros((20, 20, 60), dtype=bool)
        occ[:, :, 24:37] = True  # 1.0 + 2.0 mm added on 10 mm = exactly 0.30
        slab = VoxelMask(occ)
        z = np.linspace(25.0, 35.0, 101)
        out, accepted = extend(np.column_stack([np.full(101, 10.0), np.full(101, 10.0), z]), slab)
        assert accepted

    def test_midfiber_truncated_recovers_analytic_length(self):
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=10.0, dims_mm=(40, 20, 60))
        mask, field, gt = make_phantom(spec)
        theta = math.radians(10.0)
        d = np.array([math.sin(theta), 0.0, math.cos(theta)])
        full = 60.0 / math.cos(theta)
        center = np.array([20.0, 10.0, 30.0])
        ts = np.linspace(-0.45 * full, 0.40 * full, 400)  # truncated ~10% at one end
        out, accepted = extend(center + ts[:, None] * d, mask)
        assert accepted
        assert arc_length(out) == pytest.approx(full, rel=0.02)

    def test_endpoints_land_on_boundary(self):
        mask, field = uniform_box(dims=(10, 10, 30))
        z = np.linspace(2.0, 28.0, 53)  # 4 mm added on 26 mm stays under 30%
        out, accepted = extend(np.column_stack([np.full(53, 5.5), np.full(53, 5.5), z]), mask)
        assert accepted
        assert out[0, 2] == pytest.approx(0.0, abs=1e-9)
        assert out[-1, 2] == pytest.approx(30.0, abs=1e-9)

    def test_ray_exit_respects_max_dist(self):
        mask, _ = uniform_box(dims=(10, 10, 30))
        p = np.array([[5.0, 5.0, 15.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        assert _ray_exits(mask, p, d, max_dist=100.0)[0] == pytest.approx(15.0)
        assert np.isnan(_ray_exits(mask, p, d, max_dist=3.0)[0])

    def test_ray_exit_from_just_inside_a_face(self):
        # An anchor 1e-8 mm inside the mask's face starts in its voxel: its
        # exit lies 1e-8 mm out along the ray, not at 0.
        mask, _ = uniform_box(dims=(10, 10, 30))
        p = np.array([[5.0, 5.0, 30.0 - 1e-8]])
        d = np.array([[0.0, 0.0, 1.0]])
        got = _ray_exits(mask, p, d, max_dist=100.0)[0]
        assert got == ref.ray_exit_distance(mask, p[0], d[0], 100.0)
        assert got == pytest.approx(1e-8, rel=1e-6)

    def test_frame_mismatch_raises(self):
        mask, field = uniform_box(dims=(10, 10, 30))
        other = VoxelMask(np.ones((5, 5, 5), dtype=bool))
        seeds = SeedSet(np.array([[2.0, 2.0, 2.0]]))
        from muscletract.errors import FrameMismatchError

        with pytest.raises(FrameMismatchError):
            raw_set(field, other, seeds)


class TestReconstruct:
    def test_pipeline_emits_fitted_extrapolated_tracks(self, reconstructed):
        spec = PhantomSpec()
        mask, field, gt = make_phantom(spec)
        sset = reconstructed(field, mask, seeds_3d(mask, 3.0))
        assert len(sset) > 50
        # extrapolated endpoints sit on the mask boundary: a nudge outward
        # along the terminal tangent leaves the mask, a nudge inward stays
        for s in list(sset)[::17]:
            for anchor, inner in ((s[0], s[1]), (s[-1], s[-2])):
                tangent = anchor - inner
                tangent /= np.linalg.norm(tangent)
                assert not mask.points_in_mask((anchor + 0.01 * tangent)[None])[0]
                assert mask.points_in_mask((anchor - 0.01 * tangent)[None])[0]


def jittered_arc(voxel=1.0):
    spec = PhantomSpec(shape="curved_arc", arc_radius_mm=14.0, arc_sweep_deg=100.0,
                       arc_thickness_mm=6.0, dims_mm=(20.0, 12.0, 20.0), voxel_mm=voxel,
                       jitter_deg=0.8, seed=5)
    return make_phantom(spec)[:2]


def reframed(mask, field, voxel_size, origin):
    """The same voxels on anisotropic voxels and a shifted origin."""
    return (VoxelMask(mask.occupancy, voxel_size, origin),
            OrientationField(field.directions, field.fa, voxel_size, origin))


def shortened(mask, field):
    """Every third voxel's direction 2.8e-7 short of unit norm. Against a
    0.05 degree gate (cos = 1 - 3.8e-7) the step into such a voxel passes,
    but v.v fails, so the next step ends the track."""
    d = field.directions.copy()
    d[np.indices(field.dims).sum(axis=0) % 3 == 0] *= 1.0 - 2.8e-7
    return mask, OrientationField(d, field.fa)


def some_seeds(mask, spacing, limit=300):
    pts = seeds_3d(mask, spacing).points
    return SeedSet(pts[:: max(1, len(pts) // limit)])


CASES = {
    "box": lambda: make_phantom(PhantomSpec(dims_mm=(20.0, 12.0, 40.0)))[:2],
    "jittered_arc": jittered_arc,
    "fusiform_0.7mm": lambda: make_phantom(
        PhantomSpec(shape="fusiform", voxel_mm=0.7, dims_mm=(12.0, 10.0, 36.0)))[:2],
    "arc_0.7mm": lambda: jittered_arc(voxel=0.7),
    "anisotropic_shifted": lambda: reframed(*jittered_arc(), (0.8, 1.1, 0.6), (-3.2, 5.5, 1.25)),
    "short_directions": lambda: shortened(*CASES["box"]()),
}
CONFIGS = {
    "default": TrackingConfig(),
    "step_over_voxel": TrackingConfig(step_mm=1.3, min_length_mm=1.0),
    "gate_0.05deg": TrackingConfig(max_angle_deg=0.05, min_length_mm=0.2),
    "tight_extrap": TrackingConfig(max_extrap_fraction=0.02),
}


def assert_same_streamlines(got, want):
    assert len(got) == len(want)
    assert np.array_equal(got.offsets, want.offsets)
    assert got.points.dtype == want.points.dtype
    assert got.points.tobytes() == want.points.tobytes()


def unrounded(field, mask, seeds, cfg=None):
    """The float64 sets of reconstruct_batches joined into one: the bits that
    the STRL writer rounds to float32."""
    points, counts = [np.empty((0, 3))], [np.empty(0, dtype=np.int64)]
    for batch in tracking.reconstruct_batches(field, mask, seeds, cfg):
        points.append(batch.points.copy())
        counts.append(batch.counts)
    return StreamlineSet(np.concatenate(points), np.concatenate(counts))


def assert_reconstructs_reference(reconstructed, field, mask, seeds, cfg=None):
    """reconstruct_batches against tests/reference_tracking.py: its float64
    sets bit for bit, and the set that load_streamlines reads back from the
    STRL file they were written to exactly their float32 rounding. Returns
    that set."""
    want = ref.reconstruct(field, mask, seeds, cfg)
    assert_same_streamlines(unrounded(field, mask, seeds, cfg), want)
    got = reconstructed(field, mask, seeds, cfg)
    assert_same_streamlines(got, StreamlineSet(want.points.astype(np.float32), want.counts))
    return got


class TestMatchesStepwiseReference:
    """The batched stages against tests/reference_tracking.py, bit for bit."""

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reconstruct(self, reconstructed, case, cfg_name):
        mask, field = CASES[case]()
        seeds = some_seeds(mask, 1.0)
        assert_reconstructs_reference(reconstructed, field, mask, seeds, CONFIGS[cfg_name])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_track(self, case):
        mask, field = CASES[case]()
        seeds = some_seeds(mask, 1.0)
        got = raw_set(field, mask, seeds)
        assert len(got) > 0
        assert_same_streamlines(got, ref.track(field, mask, seeds, TrackingConfig()))

    @pytest.mark.parametrize("max_steps", [1, 2, 7, 2000])
    @pytest.mark.parametrize("cfg_name", ["default", "step_over_voxel", "gate_0.05deg"])
    def test_propagate_kernel(self, max_steps, cfg_name):
        mask, field = jittered_arc(voxel=0.7)
        starts = some_seeds(mask, 1.0).points
        starts = starts[mask.points_in_mask(starts)]
        idx = mask.world_to_index(starts)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        cfg = CONFIGS[cfg_name]
        # One store for both signs, as every batch refills it. Against -v0
        # every first step negates the field vector, so the records' signs
        # decide the points.
        runs = _Runs(field, mask, cfg.step_mm)
        for sign in (1.0, -1.0):
            counts = _propagate(field, mask, starts, sign * v0, cfg, max_steps,
                                tracking._pass_steps(field, mask, cfg), runs)
            order = _sorted_runs(runs, np.zeros(len(starts), dtype=np.int64))
            assert (runs.count[: runs.n] < 0).any() == (sign < 0)
            ends = np.cumsum(counts)
            # Each half-track forwards from its first row, and reversed back
            # from its last, as _raw_block lays out the two halves.
            forward, backward = np.empty((2, ends[-1], 3))
            _write_runs(forward, runs.records(order), ends - counts, 1)
            _write_runs(backward, runs.records(order), ends - 1, -1)
            want = ref.propagate(field, mask, starts, sign * v0, cfg, max_steps)
            assert len(counts) == len(want) == len(starts)
            for got, flip in ((forward, 1), (backward, -1)):
                got = np.split(got, ends[:-1])
                assert all(np.array_equal(a[::flip], b) for a, b in zip(got, want))
            assert counts.max() == min(max_steps, max(map(len, want)))

    def test_run_records_are_sorted_and_written_without_copies(self, traced_peak):
        mask, field = jittered_arc(voxel=0.7)
        starts = some_seeds(mask, 1.0).points
        starts = starts[mask.points_in_mask(starts)]
        idx = mask.world_to_index(starts)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        runs = _Runs(field, mask, 0.1)
        counts = _propagate(field, mask, starts, v0, TrackingConfig(), 2000, 19, runs)
        n = runs.n
        assert n > 1000
        # The store holds 40 bytes per run, and no more than it was filled with.
        columns = (runs.track, runs.first, runs.start, runs.count)
        assert all(len(column) == n for column in columns)
        assert sum(column.nbytes for column in columns) <= 40 * n
        # The order groups the runs by block, then puts the longest first;
        # sorting holds 16 bytes per run besides the records, which it leaves
        # as they were, and one buffer in which numpy casts the int32 tracks
        # to index with them.
        kept = [column.copy() for column in columns]
        block = np.arange(len(starts)) // 50
        order, peak = traced_peak(_sorted_runs, runs, block)
        assert peak <= 16 * n + 8 * np.getbufsize() + 4096
        assert all(np.array_equal(a, b) for a, b in zip(columns, kept))
        assert np.array_equal(np.sort(order), np.arange(n))
        by_block = block[runs.track[order]]
        length = np.abs(runs.count[order])
        assert (np.diff(by_block) >= 0).all()
        assert (np.diff(length)[np.diff(by_block) == 0] <= 0).all()
        # Writing one block's runs holds what it gathers of them (and the
        # cast buffer), not a copy of the store.
        ends = np.cumsum(counts)
        out = np.empty((ends[-1], 3))
        rows = np.flatnonzero(by_block == 3)
        one = order[rows.min() : rows.max() + 1]
        assert 0 < len(one) < n // 4
        _, peak = traced_peak(lambda: _write_runs(out, runs.records(one), ends - counts, 1))
        assert peak <= 80 * len(one) + 8 * len(starts) + 8 * np.getbufsize() + 4096 < 40 * n

    def test_fit_kernel_shares_designs_across_lengths(self):
        rng = np.random.default_rng(7)
        designs = {n: np.vander(np.linspace(0.0, 1.0, n), 4, increasing=True) for n in (5, 6, 40, 333)}
        for n in (5, 6, 5, 40, 6, 333, 40):
            pts = np.cumsum(rng.normal(size=(n, 3)), axis=0)
            assert np.array_equal(_fit_cubic(pts, designs[n]), ref.fit_poly3(pts))

    def test_ray_exits_kernel(self):
        mask, _ = reframed(*jittered_arc(), (0.8, 1.1, 0.6), (-3.2, 5.5, 1.25))
        rng = np.random.default_rng(11)
        lo, hi = mask.origin, mask.origin + mask.world_extent
        starts = rng.uniform(lo, hi, (400, 3))
        dirs = rng.normal(size=(400, 3))
        dirs[::7, rng.integers(0, 3)] = 0.0  # rays parallel to a face
        dirs[::11] = [0.0, 0.0, -1.0]
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        assert not mask.points_in_mask(starts).all()
        for max_dist in (2.0 * mask.diagonal, 1.5):
            got = _ray_exits(mask, starts, dirs, max_dist)
            want = [ref.ray_exit_distance(mask, p, d, max_dist) for p, d in zip(starts, dirs)]
            assert np.array_equal(got, [np.nan if w is None else w for w in want], equal_nan=True)

    def test_rank_deficient_fit_raises(self):
        pts = np.cumsum(np.ones((6, 3)), axis=0)
        flat = np.vander(np.zeros(6), 4, increasing=True)
        with pytest.raises(DegenerateGeometryError, match="rank-deficient"):
            _fit_cubic(pts, flat)

    def test_zero_terminal_segment_raises(self):
        mask, _ = uniform_box(dims=(10, 10, 30))
        good = np.column_stack([np.full(11, 5.5), np.full(11, 5.5), np.linspace(5, 25, 11)])
        stalled = np.concatenate([good, good[-1:]])
        cfg = TrackingConfig()
        with pytest.raises(DegenerateGeometryError, match="zero-length terminal segment"):
            ref.extrapolate(stalled, mask, cfg)
        with pytest.raises(DegenerateGeometryError, match="zero-length terminal segment"):
            _surface_exits(np.concatenate([good, stalled]), np.array([0, 11]), np.array([11, 12]), mask, cfg)
        with pytest.raises(DegenerateGeometryError, match="zero-length terminal segment"):
            extend(stalled[::-1], mask, cfg)

    def test_no_tracks(self, reconstructed):
        mask, field = uniform_box(dims=(10, 10, 30))
        seeds = SeedSet(np.array([[50.0, 50.0, 50.0]]))
        assert len(reconstructed(field, mask, seeds)) == 0


class TestReconstructLog:
    def expected(self, field, mask, seeds, cfg, ran_away_all=False):
        n_in = int(mask.points_in_mask(seeds.points).sum())
        tracked = ref.track(field, mask, seeds, cfg)
        unfitted = sum(len(s) < 5 for s in tracked)
        over = away = 0
        for s in tracked:
            pts = ref.fit_poly3(s) if len(s) >= 5 else s
            _, accepted, ran_away = ref.extrapolate(pts, mask, cfg)
            away += ran_away or ran_away_all
            over += not accepted and not ran_away and not ran_away_all
        kept = len(tracked) - over - away
        return (
            f"reconstruct: {len(seeds)} seeds, {len(seeds) - n_in} outside the mask; "
            f"{n_in - len(tracked)} tracks under min_length_mm; {unfitted} fits skipped "
            f"(< 5 points); {over + away} extrapolations rejected ({away} ran away, "
            f"{over} over max_extrap_fraction); {kept} streamlines"
        )

    def test_one_info_line_with_the_counts(self, caplog, reconstructed):
        mask, field = jittered_arc()
        pts = seeds_3d(mask, 1.0).points
        seeds = SeedSet(np.concatenate([pts, [[-5.0, 0.0, 0.0], [500.0, 1.0, 1.0]]]))
        cfg = TrackingConfig(step_mm=2.0, min_length_mm=5.0, max_extrap_fraction=0.1)
        with caplog.at_level(logging.INFO, logger="muscletract.tracking"):
            out = reconstructed(field, mask, seeds, cfg)
        lines = [r for r in caplog.records if r.getMessage().startswith("reconstruct:")]
        assert len(lines) == 1 and lines[0].levelno == logging.INFO
        message = lines[0].getMessage()
        assert message == self.expected(field, mask, seeds, cfg)
        counts = [int(x) for x in re.findall(r"\d+", message)]
        assert counts[0] == len(seeds) and counts[1] == 2 and counts[-1] == len(out)
        assert all(c > 0 for c in counts[2:5]), message  # every drop reason is exercised
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_ran_away_counted_apart(self, caplog, monkeypatch, reconstructed):
        mask, field = jittered_arc()
        seeds = some_seeds(mask, 2.0, limit=60)
        monkeypatch.setattr(tracking, "_ray_exits",
                            lambda mask, starts, directions, max_dist: np.full(len(starts), np.nan))
        with caplog.at_level(logging.INFO, logger="muscletract.tracking"):
            assert len(reconstructed(field, mask, seeds)) == 0
        (record,) = [r for r in caplog.records if r.getMessage().startswith("reconstruct:")]
        assert record.getMessage() == self.expected(
            field, mask, seeds, TrackingConfig(), ran_away_all=True)


def unit_within_1e6(mask, field):
    """Every direction rescaled by a factor in [1 - 0.9e-6, 1 + 0.9e-6]."""
    scale = 1.0 + np.random.default_rng(12).uniform(-0.9e-6, 0.9e-6, field.dims)
    return mask, OrientationField(field.directions * scale[..., None], field.fa)


STEP_CASES = {  # (mask and field, step)
    # unit z on exact quarter-millimetre steps: every length is exactly a
    # whole number of steps
    "box_quarter_steps": (lambda: uniform_box(dims=(6, 6, 30)), 0.25),
    "norms_within_1e-6": (lambda: unit_within_1e6(*jittered_arc()), 0.1),
    "anisotropic_shifted": (CASES["anisotropic_shifted"], 0.1),
    "step_over_voxel": (jittered_arc, 1.3),
    "origin_1e4": (lambda: reframed(*uniform_box(dims=(6, 6, 30)), 1.0, (1e4, -2e4, 3e3)), 0.1),
    "short_norms_origin_1e5": (lambda: short_by_unit_tol((0.1, 0.05, 1.0), (1e5, -2e5, 1e5)), 0.1),
}


def short_by_unit_tol(direction, origin):
    """A uniform box along direction whose vectors are as far short of unit
    norm as OrientationField accepts (grid.UNIT_TOL), far from the origin:
    a segment's length is then within the rounding of the coordinates of
    the low end of the step-count bound, and only _step_range's slack
    covers it."""
    u = np.asarray(direction) / np.linalg.norm(direction)
    scale = 1.0 - UNIT_TOL
    while True:
        try:
            return reframed(*uniform_box(dims=(6, 6, 30), direction=tuple(scale * u)), 1.0, origin)
        except InvalidSpecError:
            scale = float(np.nextafter(scale, 1.0))


def raw_tracks(case):
    mask, field = STEP_CASES[case][0]()
    cfg = TrackingConfig(step_mm=STEP_CASES[case][1], min_length_mm=1e-9)
    sset = raw_set(field, mask, some_seeds(mask, 1.0), cfg)
    return mask, field, cfg, sset


class TestStepCountBound:
    """The raw tracks' min_length_mm test against exact lengths where the bound is
    tight: lengths at whole numbers of steps, and every length the tracks
    have, with its neighbours one ulp away."""

    @pytest.mark.parametrize("case", sorted(STEP_CASES))
    def test_matches_exact_lengths_at_every_boundary(self, case):
        mask, field, cfg, sset = raw_tracks(case)
        counts = sset.counts
        lengths = arc_lengths(sset.points, sset.offsets)
        step_range = _step_range(mask, cfg)
        wholes = (np.unique(counts) - 1) * cfg.step_mm
        limits = np.unique(np.concatenate([lengths, wholes]))
        limits = np.concatenate([limits, np.nextafter(limits, 0), np.nextafter(limits, np.inf)])
        rng = np.random.default_rng(0)
        for limit in rng.choice(limits, min(len(limits), 300), replace=False):
            got = _long_enough(sset.points, sset.offsets[:-1], counts, step_range, limit)
            assert np.array_equal(got, lengths >= limit), limit

    @pytest.mark.parametrize("case", sorted(STEP_CASES))
    def test_track_at_whole_steps_matches_reference(self, case):
        mask, field, cfg, sset = raw_tracks(case)
        seeds = some_seeds(mask, 1.0)
        for c in np.unique(sset.counts)[:: max(1, len(np.unique(sset.counts)) // 6)]:
            tight = TrackingConfig(step_mm=cfg.step_mm, min_length_mm=float((c - 1) * cfg.step_mm))
            got = raw_set(field, mask, seeds, tight)
            assert_same_streamlines(got, ref.track(field, mask, seeds, tight))

    def test_equal_steps_where_only_the_sum_rounds(self):
        # Zigzags between z = 1 and 1.1, whose every segment is exactly d
        # long, against the step range (d, d, 0): the summed length of 43 or
        # more segments can round below (c - 1) * d, and only the relative
        # margin sends such a track to be measured.
        d = 1.1 - 1.0
        counts = np.array([5, 43, 44, 51, 200, 1001, 4001])
        points = np.concatenate([np.column_stack([np.zeros(c), np.zeros(c), 1.0 + d * (np.arange(c) % 2)])
                                 for c in counts])
        starts = np.cumsum(counts) - counts
        lengths = tracking._lengths(points, starts, counts)
        wholes = (counts - 1) * d
        assert (lengths < wholes).any()
        for limit in np.concatenate([lengths, wholes, np.nextafter(wholes, 0), np.nextafter(wholes, 1e9)]):
            got = _long_enough(points, starts, counts, (d, d, 0.0), limit)
            assert np.array_equal(got, lengths >= limit), limit

    def test_long_zigzag_in_a_small_box(self):
        # Up to 40 000 Euler steps of 0.1 mm, up or down at random, inside
        # one voxel: the rounding of the summed length, not that of the
        # coordinates, sets the margin.
        mask, field = uniform_box(dims=(1, 1, 1))
        cfg = TrackingConfig()
        rng = np.random.default_rng(14)
        tracks = []
        for c in (20001, 40001, 40000):
            z = [0.5]
            for up in rng.random(c - 1) < 0.5:
                z.append(z[-1] + (0.1 if (up and z[-1] < 0.85) or z[-1] < 0.15 else -0.1))
            tracks.append(np.column_stack([np.full(c, 0.5), np.full(c, 0.5), z]))
        points = np.concatenate(tracks)
        offsets = np.cumsum([0] + [len(t) for t in tracks])
        counts = np.diff(offsets)
        lengths = arc_lengths(points, offsets)
        wholes = (counts - 1) * cfg.step_mm
        step_range = _step_range(mask, cfg)
        for limit in np.concatenate([lengths, wholes, np.nextafter(wholes, 0), np.nextafter(wholes, 1e9)]):
            got = _long_enough(points, offsets[:-1], counts, step_range, limit)
            assert np.array_equal(got, lengths >= limit), limit


class TestChordBound:
    """The extrapolation test against exact lengths on straight tracks, where
    the chord equals the arc length, with max_extrap_fraction set to each
    track's added/length ratio and its neighbours."""

    def straight_tracks(self, mask):
        rng = np.random.default_rng(13)
        lo, hi = mask.origin + 1.0, mask.origin + mask.world_extent - 1.0
        tracks = []
        while len(tracks) < 40:
            a, b = rng.uniform(lo, hi, (2, 3))
            if np.linalg.norm(b - a) > 25.0:
                tracks.append(a + np.linspace(0.0, 1.0, int(rng.integers(5, 80)))[:, None] * (b - a))
        return tracks

    @pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (-1e4, 2e3, 1e4)])
    def test_matches_reference_where_the_fraction_lands(self, origin):
        mask, _ = reframed(*uniform_box(dims=(20, 20, 60)), (1.0, 0.7, 1.3), origin)
        tracks = self.straight_tracks(mask)
        points = np.concatenate(tracks)
        offsets = np.cumsum([0] + [len(t) for t in tracks])
        fractions = []
        for t in tracks:
            ends = [(t[0], t[0] - t[1]), (t[-1], t[-1] - t[-2])]
            taus = [ref.ray_exit_distance(mask, p, d / np.linalg.norm(d), 2.0 * mask.diagonal)
                    for p, d in ends]
            added = sum(tau for tau in taus if tau > 1e-12)
            fractions.append(added / arc_length(t))
        fractions = np.array([f for f in fractions if 0.0 < f < 1.0])
        assert len(fractions) > 20
        for f in np.concatenate([fractions, np.nextafter(fractions, 0), np.nextafter(fractions, 1)]):
            cfg = TrackingConfig(max_extrap_fraction=float(f))
            _, _, accepted, _ = _surface_exits(points, offsets[:-1], np.diff(offsets), mask, cfg)
            want = [ref.extrapolate(t, mask, cfg)[1] for t in tracks]
            assert accepted.tolist() == want, f


def diagonal_steps(mask, cfg):
    """The pass length that the voxel diagonal sets: ceil(|h| / s) + 1."""
    return int(math.ceil(float(np.linalg.norm(mask.voxel_size)) / cfg.step_mm)) + 1


_REFERENCE = {}


class TestPassLength:
    """A pass's length only sets how many steps it computes ahead
    (_propagate); _pass_steps sets it from the field's voxel chord."""

    @pytest.mark.parametrize("steps", [1, 2, 7, "chord", "diagonal", 64])
    @pytest.mark.parametrize("case", ["box", "jittered_arc"])
    def test_output_does_not_depend_on_it(self, monkeypatch, case, steps):
        mask, field = CASES[case]()
        seeds, cfg = some_seeds(mask, 1.0), TrackingConfig()
        if case not in _REFERENCE:
            _REFERENCE[case] = ref.reconstruct(field, mask, seeds, cfg)
        if steps != "chord":
            forced = diagonal_steps(mask, cfg) if steps == "diagonal" else steps
            monkeypatch.setattr(tracking, "_pass_steps", lambda *args: forced)
        assert_same_streamlines(unrounded(field, mask, seeds, cfg), _REFERENCE[case])

    @pytest.mark.parametrize("case, chord", [("box", 12), ("jittered_arc", 16), ("arc_0.7mm", 11)])
    def test_the_chord_bound_splits_no_run(self, case, chord):
        # Every run ends within the chord bound's pass, so a pass of the
        # diagonal's length makes the same records, no more.
        mask, field = CASES[case]()
        cfg = TrackingConfig()
        steps = tracking._pass_steps(field, mask, cfg)
        starts = some_seeds(mask, 1.0).points
        starts = starts[mask.points_in_mask(starts)]
        idx = mask.world_to_index(starts)
        v0 = field.directions[idx[:, 0], idx[:, 1], idx[:, 2]]
        max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
        records = []
        for pass_steps in (steps, diagonal_steps(mask, cfg)):
            runs, made = _Runs(field, mask, cfg.step_mm), 0
            for sign in (1.0, -1.0):
                _propagate(field, mask, starts, sign * v0, cfg, max_steps, pass_steps, runs)
                made += runs.n
            records.append(made)
        assert records[0] == records[1] > 10 * len(starts)
        assert steps == chord < diagonal_steps(mask, cfg)

    def test_a_diagonal_direction_falls_back_to_the_diagonal(self):
        # One usable voxel along the voxel diagonal can run its whole length.
        mask, field = uniform_box(dims=(6, 6, 6))
        d = field.directions.copy()
        d[3, 3, 3] = np.full(3, 1.0 / math.sqrt(3.0))
        field = OrientationField(d, field.fa)
        cfg = TrackingConfig()
        assert tracking._pass_steps(field, mask, cfg) == diagonal_steps(mask, cfg) == 19
        field.fa[3, 3, 3] = 0.05  # below fa_min: no run can use it
        assert tracking._pass_steps(field, mask, cfg) == 12


@pytest.mark.parametrize("case", ["box", "jittered_arc"])
def test_bounds_decide_most_tracks(monkeypatch, reconstructed, case):
    mask, field = CASES[case]()
    measured = []
    real = tracking._lengths
    monkeypatch.setattr(tracking, "_lengths",
                        lambda p, starts, counts: measured.append(len(counts)) or real(p, starts, counts))
    out = reconstructed(field, mask, some_seeds(mask, 1.0))
    assert len(out) > 100 and sum(measured) <= 0.05 * len(out)


def test_track_points_own_their_memory(monkeypatch):
    # Each block of raw tracks is a buffer of its own that holds the slots of
    # its tracks, a free row, the track and a free row each: at most
    # BLOCK_POINTS rows, the room for the exit points included, or one slot
    # that alone holds more. The kept tracks lie in their own slots.
    halves = []
    real = tracking._propagate
    monkeypatch.setattr(tracking, "_propagate", lambda *args: halves.append(real(*args)) or halves[-1])
    mask, field = CASES["box"]()
    pts = some_seeds(mask, 1.0).points
    for budget in (streamline_mod.BLOCK_POINTS, 97):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        halves.clear()
        sizes, kept = [], 0
        for points, starts, counts in tracking._raw_blocks(field, mask, pts, TrackingConfig()):
            assert points.flags.owndata and len(points) > 0
            ends = np.concatenate([[-1], starts + counts, [len(points) + 1]])
            assert (ends[:-1] + 2 <= np.concatenate([starts, [len(points) + 1]])).all()
            assert len(points) <= budget or len(counts) <= 1
            sizes.append(len(points))
            kept += len(counts)
        slots = np.concatenate(halves[0::2]) + np.concatenate(halves[1::2]) + 3
        assert len(sizes) > 1 and sum(sizes) == slots.sum() and kept > 0.9 * len(slots)
        assert max(sizes) <= max(budget, slots.max())


def test_with_exits_packs_each_track_with_its_exit_points():
    # Tracks in slots of a free row, the track and a free row, with exit
    # points at the head only, the tail only, both ends and neither end, and
    # one rejected track, whose slot is dropped; the free rows hold NaN.
    rng = np.random.default_rng(21)
    counts = np.array([4, 7, 3, 5, 6, 2])
    extend = np.array([[True, False], [False, True], [True, True], [False, False],
                       [True, True], [False, True]])
    rows = np.array([0, 1, 2, 3, 5])  # track 4 is rejected
    tracks = [rng.normal(size=(c, 3)) for c in counts]
    exits = rng.normal(size=(len(counts), 2, 3))
    buf = np.concatenate([np.vstack([np.full((1, 3), np.nan), t, np.full((1, 3), np.nan)])
                          for t in tracks])
    starts = np.cumsum(counts + 2) - counts - 1
    want = [np.concatenate([exits[i, :1][extend[i, :1]], tracks[i], exits[i, 1:][extend[i, 1:]]])
            for i in rows]
    got = _with_exits(buf, starts, counts, exits, extend, rows)
    assert got.tolist() == [len(w) for w in want]
    assert np.array_equal(buf, np.concatenate(want))


class TestOneValidation:
    """The tracker builds its sets unvalidated, on the argument of the
    module docstring; so the STRL writer validates only the float32 rounding
    it makes."""

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_track_output_is_valid(self, case, cfg_name):
        mask, field = CASES[case]()
        got = raw_set(field, mask, some_seeds(mask, 1.0), CONFIGS[cfg_name])
        _validate(got.points, got.offsets)

    @pytest.mark.parametrize("case", sorted(STEP_CASES))
    def test_raw_tracks_at_the_smallest_length_are_valid(self, case):
        _, _, _, sset = raw_tracks(case)
        assert len(sset) > 0
        _validate(sset.points, sset.offsets)

    def test_reconstruct_validates_once(self, monkeypatch, tmp_path):
        # Once, over the float32 rounding of each block that the STRL writer
        # makes: the float64 sets of reconstruct_batches are not checked.
        calls = []

        def counted(points, offsets, **kwargs):
            calls.append((points.dtype, len(offsets) - 1, kwargs))
            _validate(points, offsets, **kwargs)

        monkeypatch.setattr(streamline_mod, "_validate", counted)
        monkeypatch.setattr(formats_mod, "_validate", counted)
        monkeypatch.setattr(tracking, "_BATCH", 100)
        mask, field = CASES["jittered_arc"]()
        sets = tracking.reconstruct_batches(field, mask, some_seeds(mask, 1.0))
        written = save_streamlines(tmp_path / "out.strl", sets)
        assert written > 0 and len(calls) > 1
        assert all(dtype == np.float64 and kwargs == {"as_float32": True}
                   for dtype, _, kwargs in calls)
        assert sum(n for _, n, _ in calls) == written

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reconstruct_batches_are_valid_at_float64(self, monkeypatch, case):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 97)
        mask, field = CASES[case]()
        sets = 0
        for sset in tracking.reconstruct_batches(field, mask, some_seeds(mask, 1.0)):
            _validate(sset.points, sset.offsets)
            sets += 1
        assert sets > 1


def fine_steps():
    """A mask of 12 x 2 x 2 voxels of 0.0005 x 30 x 30 mm whose anisotropy
    falls below fa_min two voxels from either end along x, the field's axis;
    24 seeds in the anisotropic part; and a step of a tenth of a voxel along
    x. The 85 mm diagonal makes max_steps about 5.3e6 for tracks of 82
    points: a step-major buffer of max_steps rows per seed would take 128 MB
    for one seed, and the former budget of 6e7 bytes per buffer gave one seed
    per buffer from max_steps >= 1.25e6 on."""
    dims, vs = (12, 2, 2), (0.0005, 30.0, 30.0)
    d = np.array([1.0, 0.001, -0.002])
    d = np.broadcast_to(d / np.linalg.norm(d), dims + (3,)).copy()
    fa = np.zeros(dims)
    fa[2:10] = 0.5
    mask, field = VoxelMask(np.ones(dims, dtype=bool), vs), OrientationField(d, fa, vs)
    rng = np.random.default_rng(3)
    seeds = SeedSet(rng.uniform((2.2 * vs[0], 1.0, 1.0), (9.8 * vs[0], 59.0, 59.0), (24, 3)))
    cfg = TrackingConfig(step_mm=5e-5, min_length_mm=1e-4)
    max_steps = int(math.ceil(math.pi * mask.diagonal / cfg.step_mm)) + 4
    assert max_steps >= 5e6
    return mask, field, seeds, cfg


class TestFineSteps:
    def test_matches_reference(self, reconstructed):
        mask, field, seeds, cfg = fine_steps()
        got = raw_set(field, mask, seeds, cfg)
        assert len(got) == len(seeds) and got.counts.min() > 20
        assert_same_streamlines(got, ref.track(field, mask, seeds, cfg))
        # The exits add about 0.002 mm to tracks of about 0.004 mm: under the
        # default max_extrap_fraction every finished track would be dropped.
        finished = replace(cfg, max_extrap_fraction=0.9)
        assert len(assert_reconstructs_reference(reconstructed, field, mask, seeds, finished)) == len(seeds)

    def test_memory_follows_the_output(self, traced_peak, tmp_path):
        # The bound of the tracking module docstring, for the stream drained
        # into the STRL writer: one block's points at 24 bytes each (here the
        # whole output), plus one pass's temporaries and 56 bytes per voxel
        # run (40 in the stores, 16 for the orders and the sort), of which
        # there are at most as many as points.
        mask, field, seeds, cfg = fine_steps()
        points = len(raw_set(field, mask, seeds, cfg).points)
        sets = tracking.reconstruct_batches(field, mask, seeds, cfg)
        _, peak = traced_peak(save_streamlines, tmp_path / "out.strl", sets)
        assert points > 20 * len(seeds)
        assert peak <= 24 * points + 4 * tracking._RUN_BYTES + 56 * points


def test_reconstruct_scratch_does_not_grow_with_the_seeds(traced_peak, tmp_path):
    # The same batch of seeds once and twice over, so that every batch tracks
    # the same points: what reconstruct_batches drained into the STRL writer
    # holds must not grow with their number.
    mask, field, _ = make_phantom(PhantomSpec())
    seeds = seeds_3d(mask, 1.0).points[: tracking._BATCH]

    def scratch(copies):
        sets = tracking.reconstruct_batches(field, mask, SeedSet(np.concatenate([seeds] * copies)))
        written, peak = traced_peak(save_streamlines, tmp_path / f"{copies}.strl", sets)
        assert written > 0.9 * copies * len(seeds)
        return peak

    one, two = scratch(1), scratch(2)
    assert two < 1.1 * one


def test_kept_batches_are_released(traced_peak, tmp_path):
    # Each set's buffer is emptied when the next set is drawn, so a caller
    # that keeps every set holds what streaming one batch to a file holds,
    # plus the sets' offsets.
    mask, field, _ = make_phantom(PhantomSpec())
    seeds = seeds_3d(mask, 1.0).points[: tracking._BATCH]
    sets = tracking.reconstruct_batches(field, mask, SeedSet(seeds))
    _, one_batch = traced_peak(save_streamlines, tmp_path / "one.strl", sets)
    blocks = sum(1 for _ in tracking._raw_blocks(field, mask, seeds, TrackingConfig()))
    assert blocks > 1
    repeated = SeedSet(np.concatenate([seeds] * 3))
    kept, peak = traced_peak(lambda: list(tracking.reconstruct_batches(field, mask, repeated)))
    assert len(kept) == 3 * blocks and all(s.points.shape == (0, 3) for s in kept)
    assert peak <= 1.1 * one_batch


def test_a_kept_view_outlives_its_batch():
    # Freeing a released batch under a view that the caller took of it read
    # freed memory: a segmentation fault, so the check runs in a process of
    # its own.
    script = """
import numpy as np
from muscletract import tracking
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import seeds_3d
tracking._BATCH = 16
mask, field, _ = make_phantom(PhantomSpec(dims_mm=(10.0, 6.0, 20.0)))
batches = tracking.reconstruct_batches(field, mask, seeds_3d(mask, 1.0))
first = next(batches)
view = first.points[:20]
want = view.copy()
next(batches)
assert first.points.shape == (0, 3) and np.array_equal(view, want)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_reconstruct_batches_are_reconstruct_in_order(monkeypatch, reconstructed):
    mask, field = CASES["jittered_arc"]()
    seeds = some_seeds(mask, 1.0, limit=60)
    monkeypatch.setattr(tracking, "_BATCH", 8)
    sizes = [len(batch) for batch in tracking.reconstruct_batches(field, mask, seeds)]
    assert len(sizes) == math.ceil(len(seeds) / 8)
    assert_reconstructs_reference(reconstructed, field, mask, seeds)


@pytest.mark.parametrize("batch", [1, 3, tracking._BATCH])
def test_result_does_not_depend_on_batching(monkeypatch, reconstructed, batch):
    # 62 seeds: one outside the mask, and 9 whose tracks are under
    # min_length_mm; the 61 in the mask leave the last batch of 3 partial.
    # A block budget of 97 points splits every batch of 3 or more into
    # blocks. A run budget of 7 points makes every pass take one step per
    # track, and writes each block's runs 7 at a time.
    mask, field = CASES["jittered_arc"]()
    seeds = some_seeds(mask, 1.0, limit=60)
    seeds = SeedSet(np.concatenate([seeds.points, [[-5.0, 0.0, 0.0]]]))
    cfg = TrackingConfig(min_length_mm=12.0)
    monkeypatch.setattr(tracking, "_BATCH", batch)
    want = ref.track(field, mask, seeds, cfg)
    for budget, run_bytes in ((streamline_mod.BLOCK_POINTS, tracking._RUN_BYTES), (97, tracking._RUN_BYTES),
                              (97, 24 * 7)):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        monkeypatch.setattr(tracking, "_RUN_BYTES", run_bytes)
        assert_same_streamlines(raw_set(field, mask, seeds, cfg), want)
        assert_reconstructs_reference(reconstructed, field, mask, seeds, cfg)


def test_stores_grow_when_a_later_batch_makes_more_runs(monkeypatch):
    # Tracks along z through columns 15 voxels tall for y >= 10 and 60 for
    # y < 10. The first batch of seeds lies in the short columns and the
    # second in the tall ones, so each half's store, filled by the first
    # batch, grows while it takes the second batch's records.
    occ = np.ones((20, 20, 60), dtype=bool)
    occ[:, 10:, 15:] = False
    d = np.broadcast_to(np.array([0.02, -0.01, 1.0]) / np.linalg.norm([0.02, -0.01, 1.0]),
                        occ.shape + (3,)).copy()
    mask, field = VoxelMask(occ), OrientationField(d, np.full(occ.shape, 0.5))
    rng = np.random.default_rng(5)
    short = rng.uniform((1.0, 10.5, 1.0), (19.0, 19.5, 14.0), (16, 3))
    tall = rng.uniform((1.0, 0.5, 1.0), (19.0, 9.5, 59.0), (16, 3))
    seeds = SeedSet(np.concatenate([short, tall]))
    want = unrounded(field, mask, seeds)
    assert len(want) == len(seeds)

    sizes = []
    real = tracking._propagate

    def propagate(*args):
        runs = args[-1]
        before = len(runs.track)
        counts = real(*args)
        sizes.append((before, runs.n, len(runs.track)))
        return counts

    monkeypatch.setattr(tracking, "_propagate", propagate)
    monkeypatch.setattr(tracking, "_BATCH", 16)
    got = unrounded(field, mask, seeds)
    # Forward and backward for each batch: the second batch's halves grow
    # stores that the first one filled.
    assert len(sizes) == 4
    assert all(0 < filled <= before < after == n
               for (_, filled, _), (before, n, after) in zip(sizes[:2], sizes[2:]))
    assert_same_streamlines(got, want)

