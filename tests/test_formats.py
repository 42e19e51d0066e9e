import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muscletract.formats as formats_mod
import muscletract.streamline as streamline_mod
from muscletract.errors import (
    ConfigError,
    FormatError,
    InvalidSpecError,
    InvalidStreamlineError,
    MuscleTractError,
)
from muscletract.formats import (
    RunConfig,
    StreamlineFile,
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
from muscletract.grid import UNIT_TOL, OrientationField, VoxelMask
from muscletract.metrics import DensityMap
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import seeds_3d
from muscletract.streamline import BLOCK_POINTS, StreamlineSet
from muscletract.tracking import reconstruct_batches
from reference_streamline import pack


def random_streamlines(rng, n=5):
    out = []
    for _ in range(n):
        npts = int(rng.integers(2, 40))
        out.append(rng.uniform(-50, 50, (npts, 3)).astype(np.float32).astype(np.float64))
    return pack(out)


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
        save_streamlines(path, pack([pts]))
        got = load_streamlines(path)
        assert np.array_equal(next(iter(got)), pts)

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
        save_streamlines(path, pack([[(0, 0, 0), (1, 0, 0)]]))
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(FormatError):
            load_streamlines(path)

    def test_single_point_streamline_rejected(self, tmp_path):
        path = tmp_path / "p.strl"
        payload = struct.pack("<I", 1) + np.zeros(3, dtype="<f4").tobytes()
        path.write_bytes(b"STRL" + struct.pack("<II", 1, 1) + payload)
        with pytest.raises(FormatError):
            load_streamlines(path)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0, 0, 0], [np.nan, 1, 1]]), InvalidStreamlineError),
        (np.array([[2, 2, 2], [2, 2, 2], [2, 2, 2]]), InvalidStreamlineError),
        (None, FormatError),  # the last record cut short
    ])
    def test_bad_later_streamline_rejected(self, tmp_path, bad, error):
        good = [np.array([[0, 0, 0], [1, 0, 0]]), np.array([[0, 1, 0], [0, 2, 0], [0, 3, 0]])]
        records = b"".join(
            struct.pack("<I", len(a)) + np.asarray(a, dtype="<f4").tobytes()
            for a in good + ([bad] if bad is not None else [good[0]])
        )
        path = tmp_path / "b.strl"
        path.write_bytes(b"STRL" + struct.pack("<II", 1, 3) + records[: len(records) - (bad is None)])
        with pytest.raises(error):
            load_streamlines(path)

    def test_loads_into_one_buffer(self, tmp_path):
        path = tmp_path / "s.strl"
        sset = random_streamlines(np.random.default_rng(4), n=6)
        save_streamlines(path, sset)
        got = load_streamlines(path)
        # The float64 values of the file's words: 24 bytes per point.
        assert got.points.flags.c_contiguous and got.points.dtype == np.float64
        assert got.points.nbytes == 24 * len(got.points)
        assert np.array_equal(got.points, sset.points)
        assert np.array_equal(got.offsets, sset.offsets)


    @pytest.mark.parametrize("cuts", [[], [0], [0, 3], [0, 1, 5, 9, 12]])
    def test_stream_of_sets_writes_the_set_bytes(self, tmp_path, cuts):
        sset = random_streamlines(np.random.default_rng(6), n=12)
        save_streamlines(tmp_path / "set.strl", sset)
        bounds = cuts + [len(sset)] if cuts else []
        batches = (sset.take(np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]))
        want = len(sset) if cuts else 0
        assert save_streamlines(tmp_path / "stream.strl", batches) == want
        got = (tmp_path / "stream.strl").read_bytes()
        if cuts:
            assert got == (tmp_path / "set.strl").read_bytes()
        else:
            assert len(load_streamlines(tmp_path / "stream.strl")) == 0

    def test_a_write_cut_short_leaves_a_file_that_fails_to_load(self, tmp_path):
        # At z = 1e10 mm float32 turns every track of a 40 mm box along z
        # into one point, so the first batch fails its check once the header
        # is written. So does a stream that breaks off after some records.
        mask, field, _ = make_phantom(PhantomSpec(pennation_deg=0.0, dims_mm=(6.0, 6.0, 40.0)))
        far = (0.0, 0.0, 1e10)
        mask = VoxelMask(mask.occupancy, mask.voxel_size, far)
        field = OrientationField(field.directions, field.fa, field.voxel_size, far)
        path = tmp_path / "cut.strl"
        with pytest.raises(InvalidStreamlineError, match="zero arc length"):
            save_streamlines(path, reconstruct_batches(field, mask, seeds_3d(mask, 2.0)))
        assert path.read_bytes()[8:] == b"\xff" * 4
        with pytest.raises(FormatError):
            load_streamlines(path)

        def broken():
            yield random_streamlines(np.random.default_rng(9))
            raise OSError("stream broke off")

        with pytest.raises(OSError):
            save_streamlines(path, broken())
        with pytest.raises(FormatError, match="truncated"):
            load_streamlines(path)

    @pytest.mark.parametrize("message, far", [
        ("zero arc length", [[1e10, 0.0, 0.0], [1e10 + 1.0, 0.0, 0.0]]),
        ("non-finite", [[0.0, 0.0, 0.0], [1e39, 0.0, 0.0]]),
    ])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, message, far):
        # Valid at float64, not at the float32 rounding the writer makes: one
        # step float32 cannot resolve, and one coordinate beyond its range,
        # whose cast must not warn.
        sset = StreamlineSet(np.array(far), [2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStreamlineError, match=message):
                save_streamlines(tmp_path / "s.strl", sset)

    def test_signaling_nan_coordinate_rejected(self, tmp_path):
        # 0x7f800001 is a signaling NaN; converting it to float64 raises the
        # invalid-operation flag, which must not surface as a RuntimeWarning.
        path = tmp_path / "s.strl"
        save_streamlines(path, pack([[(0.0, 0, 0), (1, 0, 0)], [(0.0, 1, 0), (0, 2, 0)]]))
        raw = bytearray(path.read_bytes())
        raw[-8:-4] = struct.pack("<I", 0x7F800001)  # y of the last point
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidStreamlineError, match="non-finite"):
            load_streamlines(path)

    def test_scratch_does_not_grow_with_the_set(self, tmp_path, monkeypatch, traced_peak):
        # A small block budget keeps the files small; the blocks it makes are
        # full whichever file is loaded.
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 1 << 12)
        tracts = list(walk(np.random.default_rng(8), [2001] * 60))

        def scratch(copies):
            path = tmp_path / f"{copies}.strl"
            save_streamlines(path, pack(tracts * copies))
            sset, peak = traced_peak(load_streamlines, path)
            return peak - sset.points.nbytes

        one, two = scratch(1), scratch(2)
        assert two < 1.1 * one


def strl_bytes(sset) -> bytes:
    """A STRL file as the format describes it, one record at a time."""
    records = [struct.pack("<I", len(s)) + s.astype("<f4").tobytes() for s in sset]
    return b"STRL" + struct.pack("<II", 1, len(sset)) + b"".join(records)


def walk(rng, counts) -> StreamlineSet:
    pts = np.cumsum(rng.uniform(-1, 1, (sum(counts), 3)), axis=0)
    return StreamlineSet(pts, counts)


class TestStreamlineBlocks:
    """STRL records are read and written one streamline.blocks range at a time."""

    @pytest.mark.parametrize("counts", [
        [BLOCK_POINTS // 3 + 5] * 5,  # blocks end inside the budget, streamlines straddle it
        [3, BLOCK_POINTS + 7, 4],  # one streamline longer than the budget
        [],
    ], ids=["straddling", "longer_than_budget", "empty"])
    def test_save_load_save_byte_exact(self, tmp_path, counts):
        sset = walk(np.random.default_rng(len(counts)), counts)
        p1, p2 = tmp_path / "a.strl", tmp_path / "b.strl"
        save_streamlines(p1, sset)
        assert p1.read_bytes() == strl_bytes(sset)
        got = load_streamlines(p1)
        assert np.array_equal(got.offsets, sset.offsets)
        assert np.array_equal(got.points, sset.points.astype(np.float32).astype(np.float64))
        save_streamlines(p2, got)
        assert p2.read_bytes() == p1.read_bytes()

    @pytest.mark.parametrize("budget, head_bytes", [(2, 4), (7, 5), (40, 13), (1 << 16, 1 << 16)])
    def test_small_blocks_and_header_reads(self, tmp_path, monkeypatch, budget, head_bytes):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        monkeypatch.setattr(formats_mod, "_READ_BYTES", head_bytes)
        rng = np.random.default_rng(budget)
        path = tmp_path / "s.strl"
        for _ in range(10):
            sset = walk(rng, rng.integers(2, 30, int(rng.integers(1, 12))).tolist())
            save_streamlines(path, sset)
            assert path.read_bytes() == strl_bytes(sset)
            got = load_streamlines(path)
            assert np.array_equal(got.offsets, sset.offsets)
            assert np.array_equal(got.points, sset.points.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("budget", [2, 7, 1 << 16])
    def test_rows_write_the_subset_unchanged(self, tmp_path, monkeypatch, budget):
        # Copying the records at rows out of a file equals writing their
        # copy, repeats and any order included.
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        sset = walk(np.random.default_rng(budget), [5, 2, 9, 3, 40, 2, 7])
        save_streamlines(tmp_path / "all.strl", sset)
        for rows in ([4, 0, 6, 2], [1, 1, 5], list(range(7))[::-1], []):
            with StreamlineFile(tmp_path / "all.strl") as strl:
                assert strl.copy(tmp_path / "rows.strl", rows) == len(rows)
            save_streamlines(tmp_path / "copy.strl", sset.take(rows))
            assert (tmp_path / "rows.strl").read_bytes() == (tmp_path / "copy.strl").read_bytes()
            assert (tmp_path / "rows.strl").read_bytes() == strl_bytes(sset.take(rows))

    def test_copy_writes_its_count_first(self, tmp_path):
        # The count leads the records, so the copy needs no seek: it can
        # write into a pipe.
        sset = walk(np.random.default_rng(3), [4, 6, 2])
        save_streamlines(tmp_path / "all.strl", sset)
        r, w = os.pipe()
        try:
            with StreamlineFile(tmp_path / "all.strl") as strl:
                strl.copy(f"/dev/fd/{w}", [2, 0])
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            assert fh.read() == strl_bytes(sset.take([2, 0]))

    def test_copy_reads_the_file_it_opened(self, tmp_path):
        # Replacing the path after it was opened changes nothing: the rows
        # are copied from the records that were checked.
        first = walk(np.random.default_rng(4), [4, 6, 2, 5])
        path = tmp_path / "s.strl"
        save_streamlines(path, first)
        with StreamlineFile(path) as strl:
            save_streamlines(tmp_path / "other.strl", walk(np.random.default_rng(5), [3]))
            os.replace(tmp_path / "other.strl", path)
            assert strl.copy(tmp_path / "rows.strl", [3, 1]) == 2
        assert (tmp_path / "rows.strl").read_bytes() == strl_bytes(first.take([3, 1]))

    def test_copy_will_not_overwrite_its_source(self, tmp_path):
        path = tmp_path / "s.strl"
        save_streamlines(path, walk(np.random.default_rng(6), [4, 6, 2]))
        raw = path.read_bytes()
        os.link(path, tmp_path / "link.strl")
        for out in (path, tmp_path / "link.strl"):
            with StreamlineFile(path) as strl, pytest.raises(FormatError, match="onto itself"):
                strl.copy(out, [0])
            assert path.read_bytes() == raw

    @pytest.mark.parametrize("budget", [2, 1 << 16])
    def test_stream_yields_the_loaded_set_by_blocks(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", budget)
        path = tmp_path / "s.strl"
        save_streamlines(path, walk(np.random.default_rng(5), [3, 2, 9, 4, 2]))
        whole = load_streamlines(path)
        with StreamlineFile(path) as strl:
            parts = list(strl.sets())
        assert [len(p) for p in parts] == [hi - lo for lo, hi in streamline_mod.blocks(whole.offsets)]
        assert all(p.points.dtype == np.float64 for p in parts)
        assert np.array_equal(np.concatenate([p.points for p in parts]), whole.points)
        assert np.array_equal(np.concatenate([p.counts for p in parts]), whole.counts)

    @pytest.mark.parametrize("head_bytes", [4, 9, 1 << 16])
    @pytest.mark.parametrize("cut, message", [
        (lambda raw: raw[:-(12 * 4 + 2)], "truncated file while reading npoints"),
        (lambda raw: raw[:-5], "truncated file while reading streamline 2"),
        (lambda raw: raw[:40] + struct.pack("<I", 1) + raw[44:],
         "{path}: streamline 1 has 1 points"),
        (lambda raw: raw + b"z", "{path}: trailing bytes after 3 streamlines"),
    ], ids=["header", "body", "npoints", "trailing"])
    def test_errors_keep_their_messages(self, tmp_path, monkeypatch, head_bytes, cut, message):
        monkeypatch.setattr(formats_mod, "_READ_BYTES", head_bytes)
        path = tmp_path / "s.strl"
        save_streamlines(path, walk(np.random.default_rng(0), [2, 4, 4]))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(FormatError) as exc:
            load_streamlines(path)
        assert str(exc.value) == message.format(path=path)


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

    @pytest.mark.parametrize("offset", [20, 36])  # voxel_size[0], origin[1]
    def test_signaling_nan_header_rejected(self, tmp_path, offset):
        path = tmp_path / "m.mskv"
        save_mask(path, VoxelMask(np.ones((2, 3, 4), dtype=bool)))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidSpecError, match="must be finite"):
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

    def write_off_unit(self, path, off):
        """An ORNT file whose directions are 1 + off long where fa > 0, as a
        writer with only file-level precision leaves them; returns the
        float32 words written, as float64, and fa."""
        d = np.random.default_rng(11).normal(size=(3, 2, 2, 3))
        d *= (1.0 + off) / np.linalg.norm(d, axis=-1, keepdims=True)
        fa = np.full((3, 2, 2), 0.5)
        fa[0, 1, 0] = 0.0
        self.write_raw(path, d, fa)
        return d.astype("<f4").astype(np.float64), fa

    def test_foreign_precision_is_renormalized(self, tmp_path):
        stored, fa = self.write_off_unit(tmp_path / "f.ornt", 1e-5)
        field = load_field(tmp_path / "f.ornt")
        active = fa > 0
        want = stored[active] / np.linalg.norm(stored[active], axis=1)[:, None]
        assert np.array_equal(field.directions[active], want)
        assert not np.array_equal(want, stored[active])
        assert np.array_equal(field.directions[~active], stored[~active])

    @pytest.mark.parametrize("off, renormalized", [(8e-7, False), (2e-6, True)])
    def test_renormalized_exactly_when_the_field_rejects(self, tmp_path, off, renormalized):
        # Stored float32 words 8e-7 off are inside UNIT_TOL and load as they are.
        stored, fa = self.write_off_unit(tmp_path / "f.ornt", off)
        active = fa > 0
        norms = np.linalg.norm(stored[active], axis=1)
        assert ((np.abs(norms - 1.0) > UNIT_TOL) == renormalized).all()
        want = stored.copy()
        if renormalized:
            want[active] /= norms[:, None]
        assert np.array_equal(load_field(tmp_path / "f.ornt").directions, want)

    def test_a_written_field_is_normed_once(self, tmp_path, monkeypatch):
        save_field(tmp_path / "f.ornt", make_phantom(PhantomSpec(jitter_deg=2.0, seed=5))[1])
        norms, checks = [], []
        norm, check = np.linalg.norm, OrientationField.validate_units
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(1) or norm(*a, **k))
        monkeypatch.setattr(OrientationField, "validate_units",
                            lambda self: checks.append(1) or check(self))
        load_field(tmp_path / "f.ornt")
        assert (len(norms), len(checks)) == (1, 1)

    def test_beyond_file_precision_is_rejected(self, tmp_path):
        self.write_off_unit(tmp_path / "f.ornt", 2e-4)
        with pytest.raises(FormatError, match="non-unit directions") as err:
            load_field(tmp_path / "f.ornt")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("channel, error", [(0, FormatError), (3, InvalidSpecError)])
    def test_signaling_nan_payload_rejected(self, tmp_path, channel, error):
        d = np.zeros((2, 2, 2, 3))
        d[..., 2] = 1.0
        path = tmp_path / "f.ornt"
        self.write_raw(path, d, np.full((2, 2, 2), 0.5))
        raw = bytearray(path.read_bytes())
        at = 44 + 4 * (4 * 5 + channel)  # voxel 5, x-fastest
        raw[at : at + 4] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        with pytest.raises(error):
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


    def test_signaling_nan_payload_loads_as_nan(self, tmp_path):
        # A density volume has no finite check: the NaN is loaded as it is.
        path = tmp_path / "n.dens"
        save_density(path, DensityMap(np.ones((2, 1, 1)), np.ones(3), np.zeros(3)))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        counts = load_density(path).counts
        assert counts[0, 0, 0] == 1.0 and np.isnan(counts[1, 0, 0])


class TestGridFiles:
    """MSKV, ORNT and DENS share one reader: each keeps its messages."""

    @staticmethod
    def saved(tmp_path, kind):
        rng = np.random.default_rng(6)
        path = tmp_path / f"g.{kind}"
        if kind == "mskv":
            save_mask(path, random_mask(rng))
            return path, load_mask, "occupancy"
        if kind == "ornt":
            save_field(path, random_field(rng))
            return path, load_field, "field payload"
        mask = random_mask(rng)
        save_density(path, DensityMap(rng.integers(0, 9, mask.dims), mask.voxel_size, mask.origin))
        return path, load_density, "density payload"

    @pytest.mark.parametrize("kind", ["mskv", "ornt", "dens"])
    def test_truncated_payload_rejected(self, tmp_path, kind):
        path, load, what = self.saved(tmp_path, kind)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == f"truncated file while reading {what}"

    @pytest.mark.parametrize("dims", [(4096,) * 3, (2**32 - 1,) * 3], ids=["4096_cubed", "u32_max"])
    @pytest.mark.parametrize("kind", ["mskv", "ornt", "dens"])
    def test_dims_beyond_the_file_rejected(self, tmp_path, kind, dims):
        # A 52-byte file: the header and 8 payload bytes.
        path, load, what = self.saved(tmp_path, kind)
        raw = bytearray(path.read_bytes()[:52])
        raw[8:20] = struct.pack("<3I", *dims)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == f"truncated file while reading {what}"

    @pytest.mark.parametrize("kind", ["mskv", "ornt", "dens"])
    def test_trailing_bytes_rejected(self, tmp_path, kind):
        path, load, _ = self.saved(tmp_path, kind)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: trailing bytes"

    @pytest.mark.parametrize("kind", ["mskv", "ornt", "dens"])
    def test_zero_dims_rejected(self, tmp_path, kind):
        path, load, _ = self.saved(tmp_path, kind)
        raw = bytearray(path.read_bytes())
        raw[12:16] = struct.pack("<I", 0)  # dims[1]
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-positive dims"):
            load(path)


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

    @pytest.mark.parametrize("text, k, n", [
        ("n_candidates=100\n", 3000, 100),
        ("k=20000\n", 20000, 10000),
        ("k=100\nn_candidates=100\n", 100, 100),
    ])
    def test_one_of_k_and_n_candidates_is_not_held_to_the_other_default(self, tmp_path, text, k, n):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_run_config(path)
        assert (cfg.fss.k, cfg.n_candidates) == (k, n)

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


# The 4-byte words the fuzz test writes over a file: zero, the smallest
# subnormal, a signaling NaN, a quiet NaN, infinity, and all bits set (a NaN,
# or the largest u32 as a count or a dimension).
FUZZ_WORDS = [0, 1, 0x7F800001, 0x7FC00000, 0x7F800000, 0xFFFFFFFF]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Small files of every binary format, written by the library's own
    writers: (loader, bytes) by format."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(13)
    mask = VoxelMask(rng.random((2, 3, 2)) > 0.3, (0.5, 1.0, 2.0), (-1.0, 2.5, 0.0))
    field = random_field(rng)
    writers = {
        "strl": (load_streamlines, lambda p: save_streamlines(p, random_streamlines(rng, n=3))),
        "mskv": (load_mask, lambda p: save_mask(p, mask)),
        "ornt": (load_field, lambda p: save_field(p, field)),
        "dens": (load_density, lambda p: save_density(
            p, DensityMap(rng.integers(0, 9, mask.dims), mask.voxel_size, mask.origin))),
    }
    files = {}
    for kind, (load, write) in writers.items():
        write(d / kind)
        files[kind] = (load, (d / kind).read_bytes())
    return d, files


@st.composite
def mutated(draw, files):
    """(kind, bytes): a file cut at any byte, with any 4-byte window
    overwritten by one of FUZZ_WORDS, or with one bit flipped."""
    kind = draw(st.sampled_from(sorted(files)))
    raw = bytearray(files[kind][1])
    how = draw(st.sampled_from(["truncate", "word", "bit"]))
    if how == "truncate":
        del raw[draw(st.integers(0, len(raw) - 1)) :]
    elif how == "word":
        at = draw(st.integers(0, len(raw) - 4))
        raw[at : at + 4] = struct.pack("<I", draw(st.sampled_from(FUZZ_WORDS)))
    else:
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
    return kind, bytes(raw)


class TestLoaderFuzz:
    """A damaged file is loaded or rejected with a MuscleTractError, never
    with another exception or a RuntimeWarning."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_damaged_files_load_or_raise_library_errors(self, fuzz_files, data):
        d, files = fuzz_files
        kind, raw = data.draw(mutated(files))
        path = d / f"damaged.{kind}"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                files[kind][0](path)
            except MuscleTractError:
                pass
