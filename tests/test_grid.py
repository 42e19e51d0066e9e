import numpy as np
import pytest

from muscletract.errors import FrameMismatchError, InvalidSpecError, NonUnitError
from muscletract.grid import OrientationField, VoxelMask

NONFINITE = (np.nan, np.inf, -np.inf)


def unit_field(dims=(3, 3, 3)):
    d = np.zeros(dims + (3,))
    d[..., 2] = 1.0
    return d, np.full(dims, 0.5)


class TestVoxelMask:
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite_voxel_size_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            VoxelMask(np.ones((2, 2, 2), dtype=bool), voxel_size=bad)
        with pytest.raises(InvalidSpecError):
            VoxelMask(np.ones((2, 2, 2), dtype=bool), voxel_size=(1.0, bad, 1.0))

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite_origin_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            VoxelMask(np.ones((2, 2, 2), dtype=bool), origin=(0.0, 0.0, bad))


class TestLookup:
    def test_matches_bounds_and_occupancy(self):
        rng = np.random.default_rng(5)
        occ = rng.random((3, 4, 5)) < 0.5
        mask = VoxelMask(occ)
        idx = rng.integers(-3, 7, size=(500, 3))
        idx[:3] = [[-2**63, 0, 0], [2**63 - 1, 1, 1], [2, 3, 4]]
        flat, hit = mask.lookup(idx)
        inside = ((idx >= 0) & (idx < mask.dims)).all(axis=1)
        want = np.zeros(len(idx), dtype=bool)
        want[inside] = occ[tuple(idx[inside].T)]
        assert np.array_equal(hit, want)
        assert np.array_equal(flat[inside], np.ravel_multi_index(tuple(idx[inside].T), mask.dims))
        assert not flat[~inside].any()
        assert np.array_equal(mask.indices_occupied(idx), want)


class TestFrame:
    @pytest.mark.parametrize("part, value", [
        ("occupancy", np.ones((2, 3, 5), dtype=bool)),
        ("voxel_size", (1.0, 1.0, 1.0)),
        ("origin", (0.0, 5.0, 1e-9)),
    ])
    def test_every_part_must_match(self, part, value):
        frame = {"occupancy": np.ones((2, 3, 4), dtype=bool), "voxel_size": (1.0, 1.0, 2.0),
                 "origin": (0.0, 5.0, 0.0)}
        mask = VoxelMask(**frame)
        mask.require_same_frame(VoxelMask(**frame))
        with pytest.raises(FrameMismatchError):
            mask.require_same_frame(VoxelMask(**{**frame, part: value}))


class TestOrientationField:
    @pytest.mark.parametrize("off, ok", [(5e-7, True), (-5e-7, True),
                                         (2e-6, False), (-2e-6, False)])
    def test_unit_tolerance(self, off, ok):
        # Float32 words of a unit vector are within 5e-7 of unit norm; 1e-6 admits them.
        d, fa = unit_field()
        d[1, 2, 0, 2] = 1.0 + off
        if ok:
            OrientationField(d, fa)
        else:
            with pytest.raises(InvalidSpecError, match="unit-norm"):
                OrientationField(d, fa)

    def test_rejection_carries_the_norms_it_computed(self):
        d, fa = unit_field()
        d[1, 2, 0, 2] = 1.0 + 2e-6
        fa[0, 0, 0] = 0.0
        d[0, 0, 0] = 7.0
        with pytest.raises(NonUnitError, match="unit-norm") as err:
            OrientationField(d, fa)
        assert np.array_equal(err.value.norms, np.linalg.norm(d[fa > 0], axis=1))
        assert err.value.worst == float(np.abs(err.value.norms - 1.0).max())

    def test_nan_direction_where_active_rejected(self):
        d, fa = unit_field()
        d[1, 1, 1] = np.nan
        with pytest.raises(InvalidSpecError):
            OrientationField(d, fa)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite_fa_rejected(self, bad):
        d, fa = unit_field()
        fa[0, 2, 1] = bad
        with pytest.raises(InvalidSpecError):
            OrientationField(d, fa)

    def test_nonfinite_origin_rejected(self):
        d, fa = unit_field()
        with pytest.raises(InvalidSpecError):
            OrientationField(d, fa, origin=np.nan)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, (1.0, -0.5, 1.0)])
    def test_nonpositive_voxel_size_rejected(self, bad):
        d, fa = unit_field()
        with pytest.raises(InvalidSpecError, match="voxel_size must be positive"):
            OrientationField(d, fa, voxel_size=bad)
        with pytest.raises(InvalidSpecError, match="voxel_size must be positive"):
            VoxelMask(np.ones((2, 2, 2), dtype=bool), voxel_size=bad)

    def test_validate_units_rejects_nan(self):
        d, fa = unit_field()
        field = OrientationField(d, fa)
        field.directions[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidSpecError):
            field.validate_units()
