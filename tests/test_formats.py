import struct

import numpy as np
import pytest

from muscletract.errors import ConfigError, FormatError, InvalidSpecError
from muscletract.formats import (
    RunConfig,
    fmt_float,
    load_density,
    load_field,
    load_mask,
    load_run_config,
    load_streamlines,
    read_csv,
    save_density,
    save_field,
    save_mask,
    save_streamlines,
    write_csv,
)
from muscletract.grid import OrientationField, VoxelMask
from muscletract.metrics import DensityMap
from muscletract.streamline import Streamline, StreamlineSet


def random_streamlines(rng, n=5):
    out = []
    for i in range(n):
        npts = int(rng.integers(2, 40))
        pts = rng.uniform(-50, 50, (npts, 3)).astype(np.float32).astype(np.float64)
        out.append(Streamline(pts, id=i))
    return StreamlineSet(out)


def random_mask(rng):
    dims = tuple(int(d) for d in rng.integers(2, 12, 3))
    occ = rng.random(dims) > 0.4
    occ.flat[0] = True
    vs = rng.uniform(0.5, 3.0, 3).astype(np.float32).astype(np.float64)
    origin = rng.uniform(-10, 10, 3).astype(np.float32).astype(np.float64)
    return VoxelMask(occ, vs, origin)


def random_field(rng):
    mask = random_mask(rng)
    dims = mask.dims
    d = rng.normal(size=dims + (3,))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    d = d.astype(np.float32).astype(np.float64)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    fa = (rng.random(dims) * 0.8).astype(np.float32).astype(np.float64)
    return OrientationField(d, fa, mask.voxel_size, mask.origin)


class TestStreamlineRoundTrip:
    def test_save_load_save_byte_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        p1, p2 = tmp_path / "a.strl", tmp_path / "b.strl"
        for _ in range(25):
            sset = random_streamlines(rng)
            save_streamlines(p1, sset)
            save_streamlines(p2, load_streamlines(p1))
            assert p1.read_bytes() == p2.read_bytes()

    def test_geometry_preserved(self, tmp_path):
        pts = np.array([[0.5, 1.25, -3.75], [2.0, 4.0, 8.0]])
        path = tmp_path / "s.strl"
        save_streamlines(path, StreamlineSet([Streamline(pts, id=0)]))
        got = load_streamlines(path)
        assert np.array_equal(got.streamlines[0].points, pts)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.strl"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
        with pytest.raises(FormatError):
            load_streamlines(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.strl"
        path.write_bytes(b"STRL" + struct.pack("<II", 1, 1) + struct.pack("<I", 5))
        with pytest.raises(FormatError):
            load_streamlines(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.strl"
        save_streamlines(path, StreamlineSet([Streamline([(0, 0, 0), (1, 0, 0)], id=0)]))
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(FormatError):
            load_streamlines(path)

    def test_single_point_streamline_rejected(self, tmp_path):
        path = tmp_path / "p.strl"
        payload = struct.pack("<I", 1) + np.zeros(3, dtype="<f4").tobytes()
        path.write_bytes(b"STRL" + struct.pack("<II", 1, 1) + payload)
        with pytest.raises(FormatError):
            load_streamlines(path)


class TestMaskRoundTrip:
    def test_save_load_save_byte_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        p1, p2 = tmp_path / "a.mskv", tmp_path / "b.mskv"
        for _ in range(25):
            save_mask(p1, random_mask(rng))
            save_mask(p2, load_mask(p1))
            assert p1.read_bytes() == p2.read_bytes()

    def test_x_fastest_layout(self, tmp_path):
        occ = np.zeros((2, 2, 2), dtype=bool)
        occ[1, 0, 0] = True
        path = tmp_path / "m.mskv"
        save_mask(path, VoxelMask(occ))
        payload = path.read_bytes()[-8:]
        assert payload == bytes([0, 1, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("offset", [20, 36])  # voxel_size[0], origin[1]
    def test_nan_header_rejected(self, tmp_path, offset):
        path = tmp_path / "m.mskv"
        save_mask(path, VoxelMask(np.ones((2, 3, 4), dtype=bool)))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidSpecError):
            load_mask(path)

    def test_bad_occupancy_byte_rejected(self, tmp_path):
        path = tmp_path / "m.mskv"
        save_mask(path, VoxelMask(np.ones((2, 2, 2), dtype=bool)))
        data = bytearray(path.read_bytes())
        data[-1] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_mask(path)


class TestFieldRoundTrip:
    def test_save_load_save_byte_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        p1, p2 = tmp_path / "a.ornt", tmp_path / "b.ornt"
        for _ in range(25):
            save_field(p1, random_field(rng))
            save_field(p2, load_field(p1))
            assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def write_raw(path, d, fa, voxel_size=(1.0, 1.0, 1.0)):
        header = b"ORNT" + struct.pack("<I", 1)
        header += np.asarray(fa.shape, dtype="<u4").tobytes()
        header += np.asarray(voxel_size, dtype="<f4").tobytes() + np.zeros(3, dtype="<f4").tobytes()
        payload = np.concatenate([d, fa[..., None]], axis=3).transpose(2, 1, 0, 3).reshape(-1, 4)
        path.write_bytes(header + payload.astype("<f4").tobytes())

    def test_non_unit_direction_rejected(self, tmp_path):
        dims = (2, 2, 2)
        d = np.zeros(dims + (3,))
        d[..., 2] = 1.7  # not unit where fa > 0
        fa = np.full(dims, 0.5)
        path = tmp_path / "f.ornt"
        self.write_raw(path, d, fa)
        with pytest.raises(FormatError):
            load_field(path)

    def test_nan_direction_rejected(self, tmp_path):
        d = np.zeros((2, 2, 2, 3))
        d[..., 2] = 1.0
        d[1, 0, 1, 0] = np.nan
        path = tmp_path / "f.ornt"
        self.write_raw(path, d, np.full((2, 2, 2), 0.5))
        with pytest.raises(FormatError):
            load_field(path)

    @pytest.mark.parametrize("voxel_size", [(1.0, -1.0, 1.0), (0.0, 0.0, 0.0)])
    def test_nonpositive_voxel_size_rejected(self, tmp_path, voxel_size):
        d = np.zeros((2, 2, 2, 3))
        d[..., 2] = 1.0
        path = tmp_path / "f.ornt"
        self.write_raw(path, d, np.full((2, 2, 2), 0.5), voxel_size)
        with pytest.raises(InvalidSpecError, match="voxel_size must be positive"):
            load_field(path)

    def test_nan_fa_rejected(self, tmp_path):
        d = np.zeros((2, 2, 2, 3))
        d[..., 2] = 1.0
        fa = np.full((2, 2, 2), 0.5)
        fa[0, 1, 0] = np.nan
        path = tmp_path / "f.ornt"
        self.write_raw(path, d, fa)
        with pytest.raises(InvalidSpecError):
            load_field(path)


class TestDensityRoundTrip:
    def test_save_load_save_byte_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        p1, p2 = tmp_path / "a.dens", tmp_path / "b.dens"
        for _ in range(25):
            mask = random_mask(rng)
            counts = rng.integers(0, 9, mask.dims)
            dmap = DensityMap(counts, mask.voxel_size, mask.origin)
            save_density(p1, dmap)
            save_density(p2, load_density(p1))
            assert p1.read_bytes() == p2.read_bytes()

    def test_normalized_payload(self, tmp_path):
        counts = np.zeros((2, 1, 1), dtype=np.int64)
        counts[0] = 4
        counts[1] = 2
        dmap = DensityMap(counts, np.ones(3), np.zeros(3))
        path = tmp_path / "n.dens"
        save_density(path, dmap, normalized=True)
        got = load_density(path)
        assert got.counts[0, 0, 0] == 1.0
        assert got.counts[1, 0, 0] == 0.5


class TestCsv:
    def test_nine_significant_digits(self):
        assert fmt_float(np.pi) == "3.14159265"
        assert fmt_float(1.0) == "1"
        assert fmt_float(1234567891.0) == "1.23456789e+09"

    def test_write_read(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [["x", 1.5], ["y", 2.0]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["x", "1.5"], ["y", "2"]]


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_candidates == 10000
        assert cfg.fss.k == 3000
        assert cfg.fss.m == 12
        assert cfg.tracking.step_mm == 0.1

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 500\nstep_mm=0.2\n# comment\nsdcv_support=nonzero\n")
        cfg = load_run_config(path)
        assert cfg.fss.k == 500
        assert cfg.tracking.step_mm == 0.2
        assert cfg.sdcv_support == "nonzero"
        assert cfg.n_candidates == 10000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stepmm=0.5\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=tiny\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_invalid_combination_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=200\nn_candidates=100\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_degenerate_values_rejected(self, tmp_path):
        for text in (
            "step_mm=0\n", "max_extrap_fraction=1.5\n", "init_rule=up\n", "fa_min=nan\n",
            "k=0\n", "m=1\n", "n_candidates=0\n",
        ):
            path = tmp_path / "run.cfg"
            path.write_text(text)
            with pytest.raises(ConfigError, match="run.cfg"):
                load_run_config(path)

    @pytest.mark.parametrize("text", ["poly_order=3\n", "out_dir=/nonexistent\n"])
    def test_knobs_without_effect_are_unknown(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_updated_routes_each_key_to_its_owner(self):
        cfg = RunConfig().updated({"step_mm": 0.5, "k": 7, "init_rule": "index", "n_slices": 3})
        assert cfg.tracking.step_mm == 0.5
        assert cfg.fss.k == 7
        assert cfg.fss.init_rule == "index"
        assert cfg.n_slices == 3
        assert cfg.tracking.fa_min == RunConfig().tracking.fa_min

    def test_updated_checks_values(self):
        for values in ({"step_mm": float("nan")}, {"k": 0}, {"n_candidates": -5}):
            with pytest.raises(InvalidSpecError):
                RunConfig().updated(values)

    def test_updated_allows_k_above_n_candidates(self):
        cfg = RunConfig().updated({"n_candidates": 2400})
        assert cfg.fss.k == 3000
