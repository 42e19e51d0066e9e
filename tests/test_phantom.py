import hashlib
import math

import numpy as np
import pytest

from muscletract.errors import InvalidSpecError
from muscletract.formats import save_field, save_mask
from muscletract.grid import OrientationField
from muscletract.phantom import GroundTruth, PhantomSpec, box_fiber_length_median, make_phantom


class TestBoxPhantom:
    def test_zero_pennation_field_is_z(self):
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=0.0, dims_mm=(20, 20, 60))
        mask, field, gt = make_phantom(spec)
        inside = field.fa > 0
        assert inside.all()
        assert np.allclose(field.directions[inside], [0.0, 0.0, 1.0])
        assert gt.fiber_length_mm == 60.0
        assert gt.volume_mm3 == 20 * 20 * 60

    def test_ten_degree_field(self):
        spec = PhantomSpec(shape="box_unipennate", pennation_deg=10.0, dims_mm=(20, 20, 60))
        _, field, _ = make_phantom(spec)
        want = [math.sin(math.radians(10)), 0.0, math.cos(math.radians(10))]
        assert np.allclose(field.directions[field.fa > 0], want)

    def test_mask_covers_cuboid(self):
        spec = PhantomSpec(shape="box_unipennate", dims_mm=(20, 12, 60))
        mask, _, _ = make_phantom(spec)
        assert mask.dims == (20, 12, 60)
        assert mask.n_occupied == 20 * 12 * 60

    def test_invalid_pennation_rejected(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(shape="box_unipennate", pennation_deg=90.0)
        with pytest.raises(InvalidSpecError):
            PhantomSpec(shape="box_unipennate", pennation_deg=-1.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(shape="cylinder")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field, shape, value", [
    ("pennation_deg", "box_unipennate", None),
    ("dims_mm", "box_unipennate", lambda x: (20.0, x, 60.0)),
    ("voxel_mm", "fusiform", None),
    ("arc_radius_mm", "curved_arc", None),
    ("arc_thickness_mm", "curved_arc", None),
    ("arc_sweep_deg", "curved_arc", None),
    ("jitter_deg", "box_unipennate", None),
])
def test_nonfinite_spec_value_names_its_field(field, shape, value, bad):
    with pytest.raises(InvalidSpecError, match=field):
        PhantomSpec(shape=shape, **{field: value(bad) if value else bad})


class TestBoxMedianFiberLength:
    def test_unclipped_majority_gives_midline_length(self):
        # W=20, L=40 at 10 deg: unclipped mass fraction 0.65 > 0.5
        assert box_fiber_length_median(20, 40, 10.0) == 40 / math.cos(math.radians(10))

    def test_clipped_majority_matches_direct_simulation(self):
        # W=20, L=60 at 10 deg: unclipped fraction 0.47, median enters the wings
        got = box_fiber_length_median(20, 60, 10.0)
        rng = np.random.default_rng(0)
        theta = math.radians(10.0)
        t, c = math.tan(theta), math.cos(theta)
        x0 = rng.uniform(0, 20, 400000)
        z0 = rng.uniform(0, 60, 400000)
        up = np.minimum((60 - z0) / c, (20 - x0) / math.sin(theta))
        down = np.minimum(z0 / c, x0 / math.sin(theta))
        assert got == pytest.approx(np.median(up + down), rel=2e-3)

    def test_zero_angle(self):
        assert box_fiber_length_median(20, 60, 0.0) == 60.0

    @pytest.mark.parametrize("width, length, angle", [
        (20, 40, 10), (20, 60, 0.5), (10, 60, 30), (20, 60, 80),  # plateau
        (20, 60, 10), (40, 120, 10), (16, 90, 10), (30, 30, 45),  # ramp, w >= L tan
        (10, 12.75, 26), (10, 14.25, 30), (10, 12, 24), (10, 15, 32),  # ensemble boxes
        (12, 20, 45), (10, 15, 40), (20, 60, 25),  # ramp, w < L tan
    ])
    def test_matches_the_quadrature(self, width, length, angle):
        want = quadrature_median(width, length, angle)
        assert box_fiber_length_median(width, length, angle) == pytest.approx(want, rel=1e-5)


def quadrature_median(width, length, pennation_deg):
    """The length-weighted median fiber length of a box by brute force:
    400 001 fibers evenly spaced in their x offset at z = 0, sorted by length.
    Its own error is about one sample spacing over the ramp's slope."""
    theta = math.radians(pennation_deg)
    t, c = math.tan(theta), math.cos(theta)
    xi = np.linspace(-length * t, width, 400001)
    z1 = np.maximum(0.0, -xi / t)
    z2 = np.minimum(length, (width - xi) / t)
    ell = np.sort(np.maximum(0.0, z2 - z1) / c)
    w = np.cumsum(ell)
    return float(ell[np.searchsorted(w, 0.5 * w[-1])])


class TestFusiformPhantom:
    def test_mask_is_ellipsoid(self):
        spec = PhantomSpec(shape="fusiform", dims_mm=(20, 20, 60))
        mask, field, gt = make_phantom(spec)
        analytic = 4.0 / 3.0 * math.pi * 10 * 10 * 30
        assert mask.n_occupied * mask.voxel_volume == pytest.approx(analytic, rel=0.05)
        assert gt.volume_mm3 == pytest.approx(analytic)
        assert gt.fiber_length_mm == 60.0

    def test_axis_fiber_points_along_z(self):
        spec = PhantomSpec(shape="fusiform", dims_mm=(20, 20, 60))
        mask, field, _ = make_phantom(spec)
        centers = np.array(mask.dims) // 2
        d = field.directions[centers[0], centers[1], centers[2]]
        assert abs(d @ [0, 0, 1]) > 0.999

    def test_directions_converge_toward_poles(self):
        spec = PhantomSpec(shape="fusiform", dims_mm=(20, 20, 60))
        mask, field, _ = make_phantom(spec)
        # off-axis voxel in the upper half tilts inward (negative radial component)
        idx = (13, 10, 45)
        assert mask.occupancy[idx]
        d = field.directions[idx]
        radial = np.array([idx[0] + 0.5 - 10.0, idx[1] + 0.5 - 10.0, 0.0])
        assert d @ radial < 0
        assert d[2] > 0


class TestCurvedArcPhantom:
    def test_midline_fiber_length_is_arc_formula(self):
        spec = PhantomSpec(shape="curved_arc", arc_radius_mm=30.0, arc_sweep_deg=90.0)
        _, _, gt = make_phantom(spec)
        assert gt.fiber_length_mm == pytest.approx(math.pi / 2 * 30.0, rel=1e-12)

    def test_volume_formula(self):
        spec = PhantomSpec(
            shape="curved_arc", arc_radius_mm=30.0, arc_sweep_deg=90.0,
            arc_thickness_mm=10.0, dims_mm=(20, 12, 60),
        )
        mask, _, gt = make_phantom(spec)
        want = math.pi / 2 / 2 * (35.0**2 - 25.0**2) * 12.0
        assert gt.volume_mm3 == pytest.approx(want)
        assert mask.n_occupied * mask.voxel_volume == pytest.approx(want, rel=0.05)

    def test_directions_tangent_to_concentric_arcs(self):
        spec = PhantomSpec(shape="curved_arc")
        mask, field, _ = make_phantom(spec)
        occ = mask.occupied_indices()
        centers = mask.voxel_centers(occ)
        dirs = field.directions[occ[:, 0], occ[:, 1], occ[:, 2]]
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
        assert np.allclose(dirs[:, 1], 0.0)
        # tangency: every direction is perpendicular to the radial vector from
        # one common center; solve for that center and check the residual
        a = np.column_stack([dirs[:, 0], dirs[:, 2]])
        b = dirs[:, 0] * centers[:, 0] + dirs[:, 2] * centers[:, 2]
        center, res, *_ = np.linalg.lstsq(a, b, rcond=None)
        radial = np.column_stack([centers[:, 0] - center[0], centers[:, 2] - center[1]])
        dots = (radial * a).sum(axis=1) / np.linalg.norm(radial, axis=1)
        assert np.abs(dots).max() < 1e-9

    def test_inner_radius_must_be_positive(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(shape="curved_arc", arc_radius_mm=4.0, arc_thickness_mm=10.0)


@pytest.mark.parametrize("spec, grid", [
    (PhantomSpec(shape="fusiform", dims_mm=(1.5, 1.5, 1.5)), r"\(2, 2, 2\)"),
    (PhantomSpec(shape="curved_arc", arc_thickness_mm=0.01, voxel_mm=3.0), r"\(13, 4, 13\)"),
])
def test_a_phantom_between_voxel_centers_is_rejected(spec, grid):
    with pytest.raises(InvalidSpecError, match=f"{spec.shape} phantom covers no voxel of its {grid}"):
        make_phantom(spec)


class TestJitter:
    def test_jitter_preserves_unit_norm_and_is_seeded(self):
        spec = PhantomSpec(shape="box_unipennate", jitter_deg=2.0, seed=5)
        _, f1, _ = make_phantom(spec)
        _, f2, _ = make_phantom(spec)
        assert np.array_equal(f1.directions, f2.directions)
        inside = f1.fa > 0
        assert np.allclose(np.linalg.norm(f1.directions[inside], axis=1), 1.0, atol=1e-9)

    def test_jitter_actually_perturbs(self):
        base = make_phantom(PhantomSpec(shape="box_unipennate"))[1]
        jit = make_phantom(PhantomSpec(shape="box_unipennate", jitter_deg=2.0, seed=1))[1]
        inside = base.fa > 0
        ang = np.degrees(
            np.arccos(np.clip((base.directions[inside] * jit.directions[inside]).sum(1), -1, 1))
        )
        assert 0.5 < np.mean(np.abs(ang)) < 5.0

    def test_different_seeds_differ(self):
        a = make_phantom(PhantomSpec(shape="box_unipennate", jitter_deg=2.0, seed=1))[1]
        b = make_phantom(PhantomSpec(shape="box_unipennate", jitter_deg=2.0, seed=2))[1]
        assert not np.array_equal(a.directions, b.directions)


def test_ground_truth_fields_complete():
    for shape in ("box_unipennate", "fusiform", "curved_arc"):
        _, _, gt = make_phantom(PhantomSpec(shape=shape))
        assert isinstance(gt, GroundTruth)
        assert gt.fiber_length_mm > 0
        assert gt.volume_mm3 > 0
        assert np.linalg.norm(gt.line_of_action) == pytest.approx(1.0, abs=1e-9)


# Leading half of the SHA-256 of save_mask's then save_field's bytes for
# PhantomSpec(shape, voxel_mm=voxel, jitter_deg=jitter, seed=7). The contract
# digests cover arc phantoms only; these pin every shape's grids.
GRID_DIGESTS = {
    ("box_unipennate", 0.0, 1.0): "bf487dd66c16ee7557a13819494d3657",
    ("box_unipennate", 0.0, 0.7): "c30c0eefd2ac399974bbc28575fec5f4",
    ("box_unipennate", 1.5, 1.0): "8fd70153219fb1105f819653f9298fff",
    ("box_unipennate", 1.5, 0.7): "265e46ff74b9eca666e0fea5443b846f",
    ("fusiform", 0.0, 1.0): "da0fe213b4a4d5194cdd0ae03d179ba9",
    ("fusiform", 0.0, 0.7): "a18830bf014850ec38d0c349d1a0efda",
    ("fusiform", 1.5, 1.0): "4052884050e28385185ed764d37f2359",
    ("fusiform", 1.5, 0.7): "3216f917c13128afc3e11143e76d8457",
    ("curved_arc", 0.0, 1.0): "9677ebac86befab844dd1590defc1c2e",
    ("curved_arc", 0.0, 0.7): "304cb41f13af69634995ff39e5aae6f9",
    ("curved_arc", 1.5, 1.0): "73c96154cd3ca8be49fdf0f09e3936e1",
    ("curved_arc", 1.5, 0.7): "5dcee6e19bc662a6f23148ff20b7fa23",
}


@pytest.mark.parametrize("shape, jitter, voxel", sorted(GRID_DIGESTS))
def test_grid_bytes_are_pinned(tmp_path, shape, jitter, voxel):
    spec = PhantomSpec(shape=shape, voxel_mm=voxel, jitter_deg=jitter, seed=7)
    mask, field, _ = make_phantom(spec)
    digest = hashlib.sha256()
    for save, grid in ((save_mask, mask), (save_field, field)):
        save(tmp_path / "grid", grid)
        digest.update((tmp_path / "grid").read_bytes())
    assert digest.hexdigest()[:32] == GRID_DIGESTS[shape, jitter, voxel]


def test_a_jittered_field_is_checked_once(monkeypatch):
    calls = []
    check = OrientationField.validate_units
    monkeypatch.setattr(OrientationField, "validate_units",
                        lambda self: calls.append(1) or check(self))
    make_phantom(PhantomSpec(jitter_deg=2.0, seed=5))
    assert len(calls) == 1
