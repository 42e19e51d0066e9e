import numpy as np
import pytest

from muscletract.errors import InvalidSpecError
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


class TestOrientationField:
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
