import argparse
import dataclasses
import importlib
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import muscletract.__main__ as entry
from muscletract.cli import build_parser, main
from muscletract.formats import (
    RUN_KEYS,
    load_density,
    load_field,
    load_mask,
    load_streamlines,
    read_csv,
    save_field,
    save_mask,
    save_streamlines,
)
import muscletract.streamline as streamline_mod
from muscletract import tracking
from muscletract.errors import DegenerateGeometryError
from muscletract.grid import OrientationField, VoxelMask
from muscletract.phantom import PhantomSpec, make_phantom
from muscletract.sampling import SeedSet, seeds_3d
from reference_streamline import pack


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def phantom_files(tmp_path):
    mask = tmp_path / "m.mskv"
    field = tmp_path / "f.ornt"
    truth = tmp_path / "t.txt"
    code = run([
        "phantom", "--shape", "box", "--pennation", "10", "--dims", "14x10x40",
        "--out-mask", mask, "--out-field", field, "--out-truth", truth,
    ])
    assert code == 0
    return mask, field, truth


class TestPhantomCommand:
    def test_writes_all_artifacts(self, phantom_files):
        mask, field, truth = phantom_files
        m = load_mask(mask)
        assert m.dims == (14, 10, 40)
        text = truth.read_text()
        assert "fiber_length_mm=" in text
        assert "seed=" in text

    def test_zero_pennation_field(self, tmp_path):
        run([
            "phantom", "--pennation", "0", "--dims", "8x8x20",
            "--out-mask", tmp_path / "m.mskv", "--out-field", tmp_path / "f.ornt",
            "--out-truth", tmp_path / "t.txt",
        ])
        f = load_field(tmp_path / "f.ornt")
        inside = f.fa > 0
        assert np.allclose(f.directions[inside], [0.0, 0.0, 1.0], atol=1e-6)

    # Explicit ids, so that adding a case renames no other; the ids are the
    # ones pytest derived from each case's position before.
    @pytest.mark.parametrize("extra, field", [
        pytest.param(["--voxel", "nan"], "voxel_mm", id="extra0-voxel_mm"),
        pytest.param(["--dims", "nanx12x60"], "dims_mm", id="extra1-dims_mm"),
        pytest.param(["--shape", "arc", "--arc-radius", "nan"], "arc_radius_mm",
                     id="extra2-arc_radius_mm"),
        pytest.param(["--shape", "arc", "--arc-thickness", "nan"], "arc_thickness_mm",
                     id="extra3-arc_thickness_mm"),
        pytest.param(["--jitter", "nan"], "jitter_deg", id="extra4-jitter_deg"),
        pytest.param(["--jitter", "inf"], "jitter_deg", id="extra5-jitter_deg"),
    ])
    def test_nonfinite_value_exits_3_naming_its_field(self, tmp_path, capsys, extra, field):
        mask = tmp_path / "m.mskv"
        capsys.readouterr()
        code = run(["phantom", *extra, "--out-mask", mask, "--out-field", tmp_path / "f.ornt",
                    "--out-truth", tmp_path / "t.txt"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
        assert not mask.exists()

    @pytest.mark.parametrize("extra, grid", [
        (["--voxel", "1e-6"], "20000000 x 12000000 x 60000000"),
        (["--voxel", "5e-324"], "inf x inf x inf"),
        (["--shape", "arc", "--voxel", "5e-324"], "inf x inf x inf"),
    ])
    def test_a_grid_over_the_voxel_budget_exits_3(self, tmp_path, capsys, extra, grid):
        mask = tmp_path / "m.mskv"
        capsys.readouterr()
        code = run(["phantom", *extra, "--out-mask", mask, "--out-field",
                    tmp_path / "f.ornt", "--out-truth", tmp_path / "t.txt"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith(f"error: phantom grid {grid} ")
        assert "voxels, more than 16777216" in err[0]
        assert not mask.exists()

    def test_phantom_flags_store_under_spec_fields(self):
        # Phantom flags default to SUPPRESS, so PhantomSpec holds the one
        # default of each; every other option keeps a real default.
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        spec_fields = {f.name for f in dataclasses.fields(PhantomSpec)}
        dests = set()
        for action in sub.choices["phantom"]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.default is argparse.SUPPRESS:
                dests.add(action.dest)
            else:
                assert action.dest not in spec_fields
        assert dests == spec_fields

    def test_mask_round_trip_byte_exact(self, phantom_files, tmp_path):
        mask, _, _ = phantom_files
        resaved = tmp_path / "resaved.mskv"
        save_mask(resaved, load_mask(mask))
        assert mask.read_bytes() == resaved.read_bytes()


class TestTrackAndFilter:
    def test_track_then_fss(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        cand = tmp_path / "cand.strl"
        code = run([
            "track", "--field", field, "--mask", mask, "--strategy", "3ds",
            "--spacing", "2", "--out", cand,
        ])
        assert code == 0
        n = len(load_streamlines(cand))
        assert n > 100

        out = tmp_path / "fss.strl"
        trace = tmp_path / "trace.csv"
        code = run([
            "filter", "--method", "fss", "-k", "50", "--candidates", cand,
            "--mask", mask, "--trace", trace, "--out", out,
        ])
        assert code == 0
        assert len(load_streamlines(out)) == 50
        header, rows = read_csv(trace)
        assert header == ["step", "id", "selection_distance_mm"]
        assert len(rows) == 50

    def test_fss_exhaustion_is_permutation(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        cand = tmp_path / "cand.strl"
        run([
            "track", "--field", field, "--mask", mask, "--strategy", "3ds",
            "--spacing", "3", "--out", cand,
        ])
        n = len(load_streamlines(cand))
        out = tmp_path / "all.strl"
        code = run([
            "filter", "--method", "fss", "-k", n, "--candidates", cand,
            "--mask", mask, "--out", out,
        ])
        assert code == 0
        got = load_streamlines(out)
        assert len(got) == n
        key = lambda sset: sorted(tuple(map(tuple, s)) for s in sset)
        assert key(got) == key(load_streamlines(cand))

    def test_reseed_methods_exact_k(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        for method in ("2ds", "3ds"):
            out = tmp_path / f"{method}.strl"
            code = run([
                "filter", "--method", method, "-k", "40", "--mask", mask,
                "--field", field, "--spacing", "2", "--out", out,
            ])
            assert code == 0
            assert len(load_streamlines(out)) == 40

    def test_k_exceeding_candidates_exits_3(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        cand = tmp_path / "cand.strl"
        run([
            "track", "--field", field, "--mask", mask, "--strategy", "3ds",
            "--spacing", "3", "--out", cand,
        ])
        n = len(load_streamlines(cand))
        code = run([
            "filter", "--method", "fss", "-k", n + 1, "--candidates", cand,
            "--mask", mask, "--out", tmp_path / "x.strl",
        ])
        assert code == 3


class TestMetricsCommand:
    def test_hand_authored_three_streamline_case(self, tmp_path):
        # 4^3 mask, three hand-built streamlines; SC/SD/SDCV enumerated by hand
        mask_path = tmp_path / "m.mskv"
        save_mask(mask_path, VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        sls = pack([
            [(0.5, 0.5, 0.5), (3.5, 0.5, 0.5)],  # 4 voxels along x
            [(0.5, 0.5, 0.5), (0.5, 3.5, 0.5)],  # 4 voxels along y
            [(0.5, 0.5, 0.5), (0.5, 0.5, 3.5)],  # 4 voxels along z
        ])
        strl_path = tmp_path / "s.strl"
        save_streamlines(strl_path, sls)
        out_csv = tmp_path / "metrics.csv"
        out_dens = tmp_path / "d.dens"
        code = run([
            "metrics", "--streamlines", strl_path, "--mask", mask_path,
            "--out-csv", out_csv, "--out-density", out_dens,
        ])
        assert code == 0
        header, rows = read_csv(out_csv)
        vals = dict(zip(header, rows[0]))
        # 10 distinct crossed voxels of 64; corner voxel counted 3 times
        assert float(vals["sc"]) == pytest.approx(10 / 64)
        assert float(vals["sd_mean"]) == pytest.approx(12 / 64)
        counts = [3] + [1] * 9 + [0] * 54
        mean = np.mean(counts)
        want_sdcv = np.std(counts) / mean
        assert float(vals["sdcv"]) == pytest.approx(want_sdcv, rel=1e-8)  # 9 sig digits in CSV
        dens = load_density(out_dens)
        assert dens.counts[0, 0, 0] == 3.0
        assert dens.counts.sum() == 12.0

    def test_frame_mismatch_exits_3(self, tmp_path):
        mask_path = tmp_path / "m.mskv"
        save_mask(mask_path, VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        far = pack([[(100.0, 100.0, 100.0), (101.0, 100.0, 100.0)]])
        strl_path = tmp_path / "far.strl"
        save_streamlines(strl_path, far)
        code = run([
            "metrics", "--streamlines", strl_path, "--mask", mask_path,
            "--out-csv", tmp_path / "x.csv",
        ])
        assert code == 3

    def test_mask_claiming_more_voxels_than_it_holds_exits_3(self, tmp_path, capsys):
        mask_path = tmp_path / "m.mskv"
        save_mask(mask_path, VoxelMask(np.ones((2, 2, 2), dtype=bool)))
        raw = bytearray(mask_path.read_bytes())
        raw[8:20] = struct.pack("<3I", 4096, 4096, 4096)
        mask_path.write_bytes(bytes(raw))
        strl_path = tmp_path / "s.strl"
        save_streamlines(strl_path, pack([[(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)]]))
        capsys.readouterr()
        code = run([
            "metrics", "--streamlines", strl_path, "--mask", mask_path,
            "--out-csv", tmp_path / "x.csv",
        ])
        assert code == 3
        assert "truncated file while reading occupancy" in capsys.readouterr().err


class TestArchCommand:
    def test_emits_row(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        strl = tmp_path / "s.strl"
        run([
            "filter", "--method", "3ds", "-k", "60", "--mask", mask,
            "--field", field, "--spacing", "2", "--out", strl,
        ])
        out = tmp_path / "arch.csv"
        code = run([
            "arch", "--streamlines", strl, "--mask", mask, "--name", "demo", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["name"] == "demo"
        assert float(row["mv_mm3"]) == 14 * 10 * 40
        assert row["arch_type"] in ("pennate", "non_pennate")
        assert float(row["fl_ml_ratio"]) == pytest.approx(
            float(row["fl_median_mm"]) / float(row["ml_mm"]), rel=1e-8
        )


def _fake_run_dir(tmp_path, name, sc, sdcv, fl, pa=10.0):
    import muscletract.formats as fmts

    d = tmp_path / name
    d.mkdir()
    fmts.write_csv(d / "metrics.csv", ["sc", "sd_mean", "sdcv", "sdcv_defined"], [[sc, 1.0, sdcv, 1]])
    fmts.write_csv(
        d / "arch.csv",
        ["name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio", "pa_median_deg",
         "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2", "loa_source", "arch_type"],
        [["m", 1000.0, fl, 60.0, fl / 60.0, pa, 1000.0 * 0.98 / fl, 0.0, 0.0, 1.0,
          0.95, "endpoint_fit", "pennate"]],
    )
    save_mask(d / "mask.mskv", VoxelMask(np.ones((4, 4, 4), dtype=bool)))
    return d


class TestCompareCommand:
    def test_identical_runs_zero_differences(self, tmp_path):
        a0 = _fake_run_dir(tmp_path, "a0", 0.9, 0.3, 50.0)
        a1 = _fake_run_dir(tmp_path, "a1", 0.8, 0.4, 55.0)
        b0 = _fake_run_dir(tmp_path, "b0", 0.9, 0.3, 50.0)
        b1 = _fake_run_dir(tmp_path, "b1", 0.8, 0.4, 55.0)
        out = tmp_path / "cmp.csv"
        code = run([
            "compare", f"fss:0:{a0}", f"fss:1:{a1}", f"3ds:0:{b0}", f"3ds:1:{b1}",
            "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out)
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row[0], []).append(row)
        for row in by_kind["pct_diff"]:
            assert all(float(v) == 0.0 for v in row[3:])
        for row in by_kind["t_stat"]:
            assert all(float(v) == 0.0 for v in row[3:])
        for row in by_kind["p_value"]:
            assert all(float(v) == 1.0 for v in row[3:])

    def test_different_runs_report_direction(self, tmp_path):
        a0 = _fake_run_dir(tmp_path, "a0", 0.95, 0.30, 45.0)
        a1 = _fake_run_dir(tmp_path, "a1", 0.93, 0.32, 46.0)
        b0 = _fake_run_dir(tmp_path, "b0", 0.85, 0.40, 50.0)
        b1 = _fake_run_dir(tmp_path, "b1", 0.84, 0.42, 52.0)
        out = tmp_path / "cmp.csv"
        code = run([
            "compare", f"fss:0:{a0}", f"fss:1:{a1}", f"3ds:0:{b0}", f"3ds:1:{b1}",
            "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out)
        pct = next(r for r in rows if r[0] == "pct_diff")
        cols = dict(zip(header, pct))
        assert cols["method"] == "3ds-vs-fss"  # pairs are ordered alphabetically
        assert float(cols["sc"]) < 0  # fss covers more
        assert float(cols["sdcv"]) > 0  # fss less non-uniform
        assert float(cols["fl_median"]) > 0  # fss shorter fibers

    def test_zero_reference_in_every_instance_writes_nan(self, tmp_path, capsys):
        # A 0 degree box gives pa_median_deg = 0 in every run, so no case is
        # left for that column's percent difference.
        dirs = [_fake_run_dir(tmp_path, f"{m}{i}", 0.9, 0.3, 50.0 + i, pa=0.0)
                for m in "ab" for i in (0, 1)]
        out = tmp_path / "cmp.csv"
        capsys.readouterr()
        code = run(["compare", f"fss:0:{dirs[0]}", f"fss:1:{dirs[1]}",
                    f"3ds:0:{dirs[2]}", f"3ds:1:{dirs[3]}", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        pct = dict(zip(header, next(r for r in rows if r[0] == "pct_diff")))
        assert pct["pa_median"] == "nan" and float(pct["sc"]) == 0.0
        assert "error" not in capsys.readouterr().err

    def test_single_method_rejected(self, tmp_path):
        a0 = _fake_run_dir(tmp_path, "a0", 0.9, 0.3, 50.0)
        code = run(["compare", f"fss:0:{a0}", "--out", tmp_path / "c.csv"])
        assert code == 3

    def _rejected(self, tmp_path, capsys, specs) -> str:
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert run(["compare", *specs, "--out", out]) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    def test_non_integer_instance_exits_3(self, tmp_path, capsys):
        a0 = _fake_run_dir(tmp_path, "a0", 0.9, 0.3, 50.0)
        b0 = _fake_run_dir(tmp_path, "b0", 0.8, 0.4, 55.0)
        err = self._rejected(tmp_path, capsys, [f"fss:x:{a0}", f"3ds:0:{b0}"])
        assert f"fss:x:{a0}" in err

    def test_header_only_csv_exits_3(self, tmp_path, capsys):
        a0 = _fake_run_dir(tmp_path, "a0", 0.9, 0.3, 50.0)
        b0 = _fake_run_dir(tmp_path, "b0", 0.8, 0.4, 55.0)
        (b0 / "metrics.csv").write_text("sc,sd_mean,sdcv,sdcv_defined\n")
        err = self._rejected(tmp_path, capsys, [f"fss:0:{a0}", f"3ds:0:{b0}"])
        assert str(b0 / "metrics.csv") in err

    def test_missing_column_exits_3(self, tmp_path, capsys):
        a0 = _fake_run_dir(tmp_path, "a0", 0.9, 0.3, 50.0)
        b0 = _fake_run_dir(tmp_path, "b0", 0.8, 0.4, 55.0)
        header, rows = read_csv(b0 / "arch.csv")
        keep = [i for i, name in enumerate(header) if name != "ml_mm"]
        (b0 / "arch.csv").write_text(
            "".join(",".join(r[i] for i in keep) + "\n" for r in [header, *rows]))
        err = self._rejected(tmp_path, capsys, [f"fss:0:{a0}", f"3ds:0:{b0}"])
        assert str(b0 / "arch.csv") in err and "ml_mm" in err


class TestFractionsCommand:
    def test_sums_to_one(self, tmp_path):
        import muscletract.formats as fmts

        arch_csv = tmp_path / "arch.csv"
        header = ["name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio",
                  "pa_median_deg", "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2",
                  "loa_source", "arch_type"]
        rows = [
            ["fcr", 100.0, 30.0, 60.0, 0.5, 10.0, 3.0, 0.0, 0.0, 1.0, 0.95, "endpoint_fit", "pennate"],
            ["fcu", 300.0, 35.0, 65.0, 0.54, 12.0, 8.0, 0.0, 0.0, 1.0, 0.96, "endpoint_fit", "pennate"],
            ["edc", 200.0, 40.0, 70.0, 0.57, 8.0, 5.0, 0.0, 0.0, 1.0, 0.92, "endpoint_fit", "pennate"],
        ]
        fmts.write_csv(arch_csv, header, rows)
        groups = tmp_path / "groups.txt"
        groups.write_text("fcr=wrist_flexors\nfcu=wrist_flexors\nedc=finger_extensors\n")
        out = tmp_path / "fr.csv"
        code = run(["fractions", arch_csv, "--groups", groups, "--out", out])
        assert code == 0
        _, rows = read_csv(out)
        vol = [float(r[3]) for r in rows if r[0] == "volume_fraction"]
        assert sum(vol) == pytest.approx(1.0, abs=1e-12)
        for group in ("wrist_flexors", "finger_extensors"):
            pcsa = [float(r[3]) for r in rows if r[0] == "pcsa_fraction" and r[1] == group]
            assert sum(pcsa) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("column, value", [
        ("mv_mm3", "abc"), ("pcsa_mm2", None), ("loa_x", "abc"), ("loa_source", None),
    ])
    def test_bad_or_missing_column_exits_3(self, tmp_path, capsys, column, value):
        import muscletract.formats as fmts

        header = ["name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio", "pa_median_deg",
                  "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2", "loa_source", "arch_type"]
        row = ["fcr", 100.0, 30.0, 60.0, 0.5, 10.0, 3.0, 0.0, 0.0, 1.0, 0.95, "endpoint_fit",
               "pennate"]
        at = header.index(column)
        if value is None:
            del header[at], row[at]
        else:
            row[at] = value
        arch_csv = tmp_path / "arch.csv"
        fmts.write_csv(arch_csv, header, [row])
        groups = tmp_path / "groups.txt"
        groups.write_text("fcr=flexors\n")
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert run(["fractions", arch_csv, "--groups", groups, "--out", out]) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(arch_csv) in err[0] and column in err[0]

    def test_missing_muscle_rejected(self, tmp_path):
        import muscletract.formats as fmts

        arch_csv = tmp_path / "arch.csv"
        fmts.write_csv(
            arch_csv,
            ["name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio", "pa_median_deg",
             "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2", "loa_source", "arch_type"],
            [["pl", 100.0, 30.0, 60.0, 0.5, 10.0, 3.0, 0.0, 0.0, 1.0, 0.95, "endpoint_fit", "pennate"]],
        )
        groups = tmp_path / "groups.txt"
        groups.write_text("other=flexors\n")
        code = run(["fractions", arch_csv, "--groups", groups, "--out", tmp_path / "o.csv"])
        assert code == 3

    def test_groups_line_without_equals_exits_3(self, tmp_path, capsys):
        import muscletract.formats as fmts

        arch_csv = tmp_path / "arch.csv"
        fmts.write_csv(
            arch_csv,
            ["name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio", "pa_median_deg",
             "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2", "loa_source", "arch_type"],
            [["pl", 100.0, 30.0, 60.0, 0.5, 10.0, 3.0, 0.0, 0.0, 1.0, 0.95, "endpoint_fit", "pennate"]],
        )
        groups = tmp_path / "groups.txt"
        out = tmp_path / "o.csv"
        # Comments, blank lines and spaces around '=' are read as in a run config.
        groups.write_text("# muscle=group\n\n  pl = flexors  # the palmaris\n")
        assert run(["fractions", arch_csv, "--groups", groups, "--out", out]) == 0
        assert read_csv(out)[1][0] == ["volume_fraction", "flexors", "", "1"]
        groups.write_text("# muscle=group\n\npl=flexors\npl flexors\n")
        out.unlink()
        capsys.readouterr()
        assert run(["fractions", arch_csv, "--groups", groups, "--out", out]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {groups}:4: expected muscle=group, got 'pl flexors'"
        ]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--shape", "pyramid", "--out-mask", "x", "--out-field", "y", "--out-truth", "z"])
        assert exc.value.code == 2

    def test_missing_file_is_3(self, tmp_path):
        code = run([
            "metrics", "--streamlines", tmp_path / "missing.strl",
            "--mask", tmp_path / "missing.mskv", "--out-csv", tmp_path / "m.csv",
        ])
        assert code == 3

    def test_degenerate_data_is_4(self, tmp_path):
        mask_path = tmp_path / "m.mskv"
        save_mask(mask_path, VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        sls = pack([
            [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)],
            [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)],
        ])
        strl = tmp_path / "two.strl"
        save_streamlines(strl, sls)
        code = run(["arch", "--streamlines", strl, "--mask", mask_path, "--out", tmp_path / "a.csv"])
        assert code == 4

    @pytest.mark.parametrize("damaged, offset, code", [("strl", -8, 4), ("mskv", 20, 3)])
    def test_signaling_nan_word_exits_without_a_warning(self, tmp_path, capsys, damaged, offset, code):
        # 0x7f800001 is a signaling NaN: a coordinate (exit 4) or a voxel size (exit 3).
        files = {"mskv": tmp_path / "m.mskv", "strl": tmp_path / "s.strl"}
        save_mask(files["mskv"], VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        save_streamlines(files["strl"], pack([[(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)]] * 3))
        raw = bytearray(files[damaged].read_bytes())
        raw[offset : offset + 4] = struct.pack("<I", 0x7F800001)
        files[damaged].write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(["arch", "--streamlines", files["strl"], "--mask", files["mskv"],
                    "--out", tmp_path / "a.csv"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_run_config_flows_through(self, phantom_files, tmp_path):
        mask, field, _ = phantom_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spacing_mm=3\nmin_length_mm=5\n")
        out = tmp_path / "c.strl"
        code = run([
            "track", "--field", field, "--mask", mask, "--strategy", "3ds",
            "--config", cfg, "--out", out,
        ])
        assert code == 0
        assert len(load_streamlines(out)) > 0


@pytest.fixture(scope="module")
def small_box(tmp_path_factory):
    """10x6x20 box phantom and its candidate streamlines at 2 mm spacing."""
    d = tmp_path_factory.mktemp("small_box")
    files = {"mask": d / "m.mskv", "field": d / "f.ornt", "cand": d / "cand.strl"}
    assert run([
        "phantom", "--shape", "box", "--dims", "10x6x20", "--out-mask", files["mask"],
        "--out-field", files["field"], "--out-truth", d / "t.txt",
    ]) == 0
    assert run([
        "track", "--field", files["field"], "--mask", files["mask"], "--spacing", "2",
        "--out", files["cand"],
    ]) == 0
    return files


def _command(f, kind, out):
    return {
        "track": ["track", "--field", f["field"], "--mask", f["mask"], "--out", out],
        "fss": ["filter", "--method", "fss", "--candidates", f["cand"], "--mask", f["mask"],
                "--out", out],
        "2ds": ["filter", "--method", "2ds", "--field", f["field"], "--mask", f["mask"],
                "--out", out],
        "3ds": ["filter", "--method", "3ds", "--field", f["field"], "--mask", f["mask"],
                "--out", out],
        "arch": ["arch", "--streamlines", f["cand"], "--mask", f["mask"], "--out", out],
    }[kind]


class TestRunParameters:
    # Explicit ids, so that adding a case renames no other; the ids of the
    # first fourteen are the ones pytest derived from each case's position.
    @pytest.mark.parametrize("kind, extra, config", [
        pytest.param("track", ["--target-candidates", "0"], None, id="track-extra0-None"),
        pytest.param("track", ["--target-candidates", "-5"], None, id="track-extra1-None"),
        pytest.param("track", [], "n_candidates=0\n", id="track-extra2-n_candidates=0\n"),
        pytest.param("2ds", ["-k", "0"], None, id="2ds-extra3-None"),
        pytest.param("3ds", ["-k", "-3"], None, id="3ds-extra4-None"),
        pytest.param("fss", ["-k", "0"], None, id="fss-extra5-None"),
        pytest.param("track", ["--step", "nan"], None, id="track-extra6-None"),
        pytest.param("track", ["--max-angle", "nan"], None, id="track-extra7-None"),
        pytest.param("track", ["--spacing", "nan"], None, id="track-extra8-None"),
        pytest.param("arch", ["--r2-threshold", "nan"], None, id="arch-extra9-None"),
        pytest.param("track", [], "out_dir=/nonexistent\n",
                     id="track-extra10-out_dir=/nonexistent\n"),
        pytest.param("track", [], "poly_order=3\n", id="track-extra11-poly_order=3\n"),
        pytest.param("track", ["--max-angle", "1000"], None, id="track-extra12-None"),
        pytest.param("track", [], "max_angle_deg=1000\n", id="track-extra13-max_angle_deg=1000\n"),
        # A step longer than the mask diagonal takes every point off the grid.
        pytest.param("track", ["--step", "1e20"], None, id="track-step-1e20"),
        pytest.param("3ds", ["--step", "1e300"], None, id="3ds-step-1e300"),
    ])
    def test_bad_value_exits_3_without_output(self, small_box, tmp_path, capsys, kind, extra, config):
        out = tmp_path / "out"
        argv = _command(small_box, kind, out) + extra
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", tmp_path / "run.cfg"]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_flag_overrides_file_value(self, small_box, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=7\nspacing_mm=3\n")
        outs = {}
        for label, extra in {
            "file": ["--config", cfg], "flags": ["--config", cfg, "-k", "5", "--spacing", "2"],
            "plain": ["-k", "5", "--spacing", "2"],
        }.items():
            out = tmp_path / f"{label}.strl"
            assert run(_command(small_box, "3ds", out) + extra) == 0
            outs[label] = load_streamlines(out)
        assert len(outs["file"]) == 7
        assert len(outs["flags"]) == 5
        assert [s.tolist() for s in outs["flags"]] == [
            s.tolist() for s in outs["plain"]
        ]

    def test_target_candidates_below_default_k(self, small_box, tmp_path):
        out = tmp_path / "c.strl"
        assert run(_command(small_box, "track", out) + ["--target-candidates", "20"]) == 0
        assert 0 < len(load_streamlines(out)) <= 20

    def test_config_file_n_candidates_below_default_k(self, small_box, tmp_path):
        # A file that sets n_candidates alone is not held to the default k.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_candidates=20\n")
        out = tmp_path / "c.strl"
        assert run(_command(small_box, "track", out) + ["--config", cfg]) == 0
        assert 0 < len(load_streamlines(out)) <= 20

    def test_run_parameter_flags_store_under_run_config_keys(self):
        # Run-parameter flags default to SUPPRESS so that only given flags
        # override the config; every other option keeps a real default.
        # (The phantom flags have a test of their own.)
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = set()
        for name, parser in sub.choices.items():
            if name == "phantom":
                continue
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                if action.default is argparse.SUPPRESS:
                    dests.add(action.dest)
                else:
                    assert action.dest not in RUN_KEYS
        assert dests == set(RUN_KEYS)
        assert len(RUN_KEYS) == 13


class TestBoundaries:
    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_csv_breaking_name_rejected(self, small_box, tmp_path, name):
        out = tmp_path / "arch.csv"
        assert run(_command(small_box, "arch", out) + ["--name", name]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("which, offset, message", [
        ("mask", 20, "voxel_size must be finite"),  # voxel_size[0]
        ("mask", 32, "origin must be finite"),  # origin[0]
        ("field", 44 + 12, "fa must be finite"),  # fa of voxel (0, 0, 0)
        ("field", 44 + 16 * 5, "non-unit directions"),  # direction x of voxel (5, 0, 0)
    ])
    def test_nan_in_loaded_grid_exits_3(self, small_box, tmp_path, capsys, which, offset, message):
        files = dict(small_box)
        raw = bytearray(files[which].read_bytes())
        raw[offset : offset + 4] = np.float32(np.nan).tobytes()
        files[which] = tmp_path / files[which].name
        files[which].write_bytes(bytes(raw))
        out = tmp_path / "c.strl"
        capsys.readouterr()
        assert run(_command(files, "track", out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["track"], ["filter", "--method", "3ds", "-k", "10"]])
    def test_streamlines_that_float32_collapses_exit_4(self, tmp_path, capsys, command):
        # At z = 1e10 mm float32 resolves 1024 mm, so STRL's rounding turns
        # every track of a 40 mm box along z into one point: the command that
        # makes them must fail, not the next one to read them.
        mask, field, _ = make_phantom(PhantomSpec(pennation_deg=0.0, dims_mm=(6.0, 6.0, 40.0)))
        far = (0.0, 0.0, 1e10)
        save_mask(tmp_path / "m.mskv", VoxelMask(mask.occupancy, mask.voxel_size, far))
        save_field(tmp_path / "f.ornt",
                   OrientationField(field.directions, field.fa, field.voxel_size, far))
        capsys.readouterr()
        assert run([*command, "--field", tmp_path / "f.ornt", "--mask", tmp_path / "m.mskv",
                    "--spacing", "2", "--out", tmp_path / "out.strl"]) == 4
        assert "zero arc length" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.ornt", "m.mskv"]


@pytest.mark.parametrize("method", ["fss", "3ds"])
def test_filter_writes_into_a_named_pipe(small_box, tmp_path, method):
    # The picks are copied count first, so --out need not be seekable; the
    # scratch file of 3ds lives beside it and is gone afterwards.
    args = ["filter", "--method", method, "-k", 5, "--spacing", 2, "--mask", small_box["mask"],
            "--candidates", small_box["cand"], "--field", small_box["field"]]
    assert run([*args, "--out", tmp_path / "file.strl"]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        code = run([*args, "--out", fifo])
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # --out was never opened: give the reader an end of file
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert got == [(tmp_path / "file.strl").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "file.strl"]


def test_fss_filter_will_not_overwrite_its_candidates(small_box, tmp_path, capsys):
    cand = tmp_path / "c.strl"
    cand.write_bytes(small_box["cand"].read_bytes())
    capsys.readouterr()
    assert run(["filter", "--method", "fss", "-k", 5, "--mask", small_box["mask"],
                "--candidates", cand, "--out", cand]) == 3
    assert "onto itself" in capsys.readouterr().err
    assert cand.read_bytes() == small_box["cand"].read_bytes()
    assert list(tmp_path.iterdir()) == [cand]


@pytest.mark.parametrize("method, code", [("fss", 0), ("3ds", 3)])
def test_filter_into_an_open_descriptor(small_box, tmp_path, method, code):
    # fss copies straight from --candidates, so --out may be /dev/fd/N; 3ds
    # needs room for its scratch file beside --out, which /dev/fd has not.
    args = ["filter", "--method", method, "-k", 5, "--spacing", 2, "--mask", small_box["mask"],
            "--candidates", small_box["cand"], "--field", small_box["field"]]
    assert run([*args, "--out", tmp_path / "file.strl"]) == 0
    r, w = os.pipe()
    try:
        assert run([*args, "--out", f"/dev/fd/{w}"]) == code
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as fh:
        got = fh.read()
    assert got == ((tmp_path / "file.strl").read_bytes() if code == 0 else b"")
    assert list(tmp_path.iterdir()) == [tmp_path / "file.strl"]


def test_baseline_filter_k_over_n_leaves_no_file(small_box, tmp_path, capsys):
    out = tmp_path / "o.strl"
    capsys.readouterr()
    assert run(["filter", "--method", "3ds", "-k", 100000, "--spacing", "2",
                "--field", small_box["field"], "--mask", small_box["mask"], "--out", out]) == 3
    assert "streamlines available, need 100000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestFrameCheck:
    def lines(self, tmp_path, arrays, monkeypatch):
        # One streamline per block, so the check must look past the first.
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 2)
        save_mask(tmp_path / "m.mskv", VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        save_streamlines(tmp_path / "s.strl",
                         pack(arrays))
        return run(["metrics", "--streamlines", tmp_path / "s.strl", "--mask", tmp_path / "m.mskv",
                    "--out-csv", tmp_path / "x.csv"])

    def test_set_wholly_outside_exits_3(self, tmp_path, monkeypatch):
        far = [[(100.0 + i, 100.0, 100.0), (101.0 + i, 100.0, 100.0)] for i in range(3)]
        assert self.lines(tmp_path, far, monkeypatch) == 3

    def test_only_inside_point_on_last_streamline_accepted(self, tmp_path, monkeypatch):
        far = [[(100.0 + i, 100.0, 100.0), (101.0 + i, 100.0, 100.0)] for i in range(3)]
        last = [(100.0, 100.0, 100.0), (4.0, 4.0, 4.0)]  # the grid's far corner
        assert self.lines(tmp_path, far + [last], monkeypatch) == 0

    @pytest.mark.parametrize("last, k, code, message", [
        ((np.nan, 1.0, 1.0), 2, 4, "non-finite"),  # validation before the frame
        ((100.0, 100.0, 100.0), 9, 3, "no streamline point falls inside"),  # frame before k > n
        ((1.0, 1.0, 1.0), 9, 3, "k=9 exceeds candidate count 4"),
    ], ids=["invalid", "outside", "k_over_n"])
    def test_fss_checks_in_order_over_the_streamed_blocks(self, tmp_path, monkeypatch, capsys,
                                                          last, k, code, message):
        monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 2)
        save_mask(tmp_path / "m.mskv", VoxelMask(np.ones((4, 4, 4), dtype=bool)))
        lines = [[(100.0 + i, 100.0, 100.0), (101.0 + i, 100.0, 100.0)] for i in range(3)]
        lines.append([(102.0, 100.0, 100.0), last])
        records = [struct.pack("<I", 2) + np.array(s, dtype="<f4").tobytes() for s in lines]
        (tmp_path / "s.strl").write_bytes(b"STRL" + struct.pack("<II", 1, 4) + b"".join(records))
        capsys.readouterr()
        assert run(["filter", "--method", "fss", "-k", k, "--candidates", tmp_path / "s.strl",
                    "--mask", tmp_path / "m.mskv", "--out", tmp_path / "o.strl"]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.strl").exists()

    def test_far_vertex_counts_like_one_just_outside(self, small_box, tmp_path):
        mask = load_mask(small_box["mask"])
        outside = float(mask.origin[0] + mask.world_extent[0] + 0.5)
        written = {}
        for label, x in {"far": 1e30, "moved": outside}.items():
            save_streamlines(tmp_path / f"{label}.strl", pack([[(1.5, 2.0, 2.0), (2.5, 2.0, 2.0),
                                                                 (x, 2.0, 2.0)]]))
            assert run(["metrics", "--streamlines", tmp_path / f"{label}.strl",
                        "--mask", small_box["mask"], "--out-csv", tmp_path / f"{label}.csv",
                        "--out-density", tmp_path / f"{label}.dens"]) == 0
            written[label] = [(tmp_path / f"{label}.{ext}").read_bytes() for ext in ("csv", "dens")]
        assert written["far"] == written["moved"]


class TestLogging:
    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "muscletract", *map(str, args)],
                              capture_output=True, text=True)

    def test_info_lines_on_stderr_only(self, small_box, tmp_path):
        out = tmp_path / "c.strl"
        track = ["track", "--field", small_box["field"], "--mask", small_box["mask"],
                 "--spacing", "2", "--out", out]
        metrics = ["metrics", "--streamlines", out, "--mask", small_box["mask"],
                   "--out-csv", tmp_path / "m.csv"]
        quiet = [self.cli(*track), self.cli(*metrics)]
        written = [out.read_bytes(), (tmp_path / "m.csv").read_bytes()]
        loud = [self.cli("--log-level", "info", *track), self.cli("--log-level", "info", *metrics)]
        assert [p.returncode for p in quiet + loud] == [0, 0, 0, 0]
        assert [p.stdout for p in loud] == [p.stdout for p in quiet]
        assert [out.read_bytes(), (tmp_path / "m.csv").read_bytes()] == written
        assert [p.stderr for p in quiet] == ["", ""]
        n = len(load_streamlines(out))
        assert "INFO muscletract.tracking: reconstruct: " in loud[0].stderr
        assert loud[0].stderr.rstrip().endswith(f"; {n} streamlines")
        assert loud[1].stderr == (
            f"INFO muscletract.metrics: density: 0 of {n} streamlines cross no in-mask voxel\n"
        )

    def test_fss_evaluations_on_stderr_only(self, small_box, tmp_path):
        n = len(load_streamlines(small_box["cand"]))
        out, trace = tmp_path / "fss.strl", tmp_path / "trace.csv"
        runs = []
        for level in ([], ["--log-level", "info"]):
            argv = [*level, *_command(small_box, "fss", out), "-k", "40", "--trace", trace]
            runs.append((self.cli(*argv), out.read_bytes(), trace.read_bytes()))
        (quiet, *quiet_files), (loud, *loud_files) = runs
        assert quiet.returncode == loud.returncode == 0
        assert quiet.stdout == loud.stdout and quiet_files == loud_files
        assert quiet.stderr == ""
        line = re.fullmatch(
            rf"INFO muscletract\.sampling: fss_select: {n} candidates, k=40; (\d+) MDF "
            r"evaluations \((\d+\.\d\d)% of n\*k\)\n", loud.stderr)
        assert line, loud.stderr
        evaluations = int(line.group(1))
        assert n <= evaluations < n * 40
        assert line.group(2) == f"{100.0 * evaluations / (n * 40):.2f}"


def test_config_value_is_checked_by_the_command_that_uses_it(small_box, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sdcv_support=bogus\n")
    assert run(_command(small_box, "track", tmp_path / "c.strl") + ["--config", cfg]) == 0
    capsys.readouterr()
    code = run(["metrics", "--streamlines", tmp_path / "c.strl", "--mask", small_box["mask"],
                "--out-csv", tmp_path / "m.csv", "--config", cfg])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sdcv_support" in err[0]
    assert not (tmp_path / "m.csv").exists()


# One command per line, each run in a directory of its own; the commands
# before the error cases build every file the later ones read.
PIPELINE = [
    ("phantom --dims 8x6x16 --out-mask m.mskv --out-field f.ornt --out-truth t.txt", 0),
    ("track --field f.ornt --mask m.mskv --min-length 3 --out c.strl", 0),
    ("filter --method fss --candidates c.strl --mask m.mskv -k 20 --trace trace.csv "
     "--out fss.strl", 0),
    ("filter --method 2ds --field f.ornt --mask m.mskv -k 10 --min-length 3 --out 2ds.strl", 0),
    ("metrics --streamlines fss.strl --mask m.mskv --out-csv metrics.csv --out-density d.dens", 0),
    ("arch --streamlines fss.strl --mask m.mskv --out arch.csv", 0),
    ("compare fss:0:a0 fss:1:a1 3ds:0:b0 3ds:1:b1 --out compare.csv", 0),
    ("fractions arch.csv --groups groups.txt --out fractions.csv", 0),
    ("filter --method bogus --mask m.mskv --out x.strl", 2),
    ("metrics --streamlines missing.strl --mask m.mskv --out-csv x.csv", 3),
    ("filter --method 2ds --field f.ornt --mask m.mskv --n-slices 500 --out x.strl", 4),
]
COLD_START = ("track", "filter --method fss", "filter --method 2ds", "metrics", "arch")


@pytest.fixture(scope="module")
def two_exits(tmp_path_factory):
    """PIPELINE run twice with stdout and stderr as pipes and --log-level
    info: through `python -X importtime -m muscletract`, which ends by
    os._exit, and through sys.exit(cli.main()), which tears the interpreter
    down; the two processes of a command run side by side. Returns each
    run's directory and (exit code, stdout, stderr, importtime lines) per
    command, with the importtime lines taken out of stderr."""
    old = "import sys; from muscletract.cli import main; sys.exit(main())"
    prefixes = {"fast": ["-X", "importtime", "-m", "muscletract"], "old": ["-c", old]}
    dirs = {name: tmp_path_factory.mktemp(name) for name in prefixes}
    for d in dirs.values():
        (d / "groups.txt").write_text("fss=flexors\n")
        for run_dir, values in (("a0", (0.95, 0.30, 45.0)), ("a1", (0.93, 0.32, 46.0)),
                                ("b0", (0.85, 0.40, 50.0)), ("b1", (0.84, 0.42, 52.0))):
            _fake_run_dir(d, run_dir, *values)
    results = {name: [] for name in prefixes}
    for line, _ in PIPELINE:
        procs = {
            name: subprocess.Popen(
                [sys.executable, *prefixes[name], "--log-level", "info", *line.split()],
                cwd=dirs[name], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for name in prefixes
        }
        for name, proc in procs.items():
            out, err = proc.communicate()
            err = err.splitlines(keepends=True)
            imports = [e for e in err if e.startswith("import time:")]
            results[name].append((proc.returncode, out,
                                  "".join(e for e in err if e not in imports), imports))
    return {name: (dirs[name], results[name]) for name in prefixes}


def test_cold_start_imports_no_numpy_ma(two_exits):
    _, results = two_exits["fast"]
    for (line, code), (got, _, _, imports) in zip(PIPELINE, results):
        assert got == code, line
        if line.startswith(COLD_START):
            assert imports, line
            modules = [i.rsplit("|", 1)[1].strip() for i in imports]
            assert "numpy.core" in modules or "numpy" in modules, line
            assert not [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")], line


def test_fast_exit_keeps_output_and_exit_codes(two_exits):
    (fast_dir, fast), (old_dir, old) = two_exits["fast"], two_exits["old"]
    assert [r[0] for r in fast] == [code for _, code in PIPELINE]
    for (line, _), a, b in zip(PIPELINE, fast, old):
        assert a[:3] == b[:3], line
    assert "INFO muscletract.tracking: reconstruct: " in fast[1][2]
    assert fast[2][1].startswith("filter[fss]: 20 streamlines")
    files = sorted(p.name for p in fast_dir.iterdir() if p.is_file())
    assert files == sorted(p.name for p in old_dir.iterdir() if p.is_file())
    assert {"c.strl", "fss.strl", "2ds.strl", "d.dens", "compare.csv", "fractions.csv"} <= set(files)
    for name in files:
        assert (fast_dir / name).read_bytes() == (old_dir / name).read_bytes(), name


def test_console_script_shares_the_fast_exit():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["muscletract"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is entry.run


@pytest.fixture(scope="module")
def parallel_box(tmp_path_factory):
    """A 10x10x40 box of fibers along z: its 4000 seeds all give tracks of
    the same length, so every batch of them holds as many points."""
    d = tmp_path_factory.mktemp("parallel_box")
    files = {"mask": d / "m.mskv", "field": d / "f.ornt"}
    assert run(["phantom", "--pennation", "0", "--dims", "10x10x40", "--out-mask", files["mask"],
                "--out-field", files["field"], "--out-truth", d / "t.txt"]) == 0
    return files


class TestStreamedTrack:
    def track(self, f, out, *extra):
        return run(["track", "--field", f["field"], "--mask", f["mask"], *extra, "--out", out])

    def test_peak_is_one_batch(self, parallel_box, tmp_path, traced_peak):
        peaks = []
        for n in (tracking._BATCH, 2 * tracking._BATCH):
            code, peak = traced_peak(self.track, parallel_box, tmp_path / "c.strl",
                                     "--target-candidates", n)
            assert code == 0 and len(load_streamlines(tmp_path / "c.strl")) == n
            peaks.append(peak)
        one, two = peaks
        assert two < 1.1 * one

    def test_peak_does_not_follow_the_step(self, parallel_box, tmp_path, traced_peak):
        # One batch of seeds at step s and s/2 doubles the points, but the
        # command holds the batch's voxel-run records, whose number does not
        # depend on the step while a voxel's steps fit one run, and one block
        # of points: its peak grows by under a tenth of the extra points at
        # the 24 bytes each that holding the batch's points would take.
        peaks, points = [], []
        for step in ("0.1", "0.05"):
            out = tmp_path / f"{step}.strl"
            code, peak = traced_peak(self.track, parallel_box, out, "--target-candidates",
                                     tracking._BATCH, "--step", step)
            assert code == 0
            peaks.append(peak)
            points.append(len(load_streamlines(out).points))
        extra = points[1] - points[0]
        assert extra > 0.9 * points[0]
        assert peaks[1] - peaks[0] < 0.1 * 24 * extra, (peaks, points)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_a_later_batch_leaves_out_as_it_was(self, parallel_box, tmp_path, capsys,
                                                         monkeypatch, existing):
        out = tmp_path / "c.strl"
        if existing:
            out.write_bytes(b"old bytes")
        calls = []
        real = tracking._surface_exits

        def fails_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise DegenerateGeometryError("zero-length terminal segment")
            return real(*args)

        monkeypatch.setattr(tracking, "_BATCH", 16)
        monkeypatch.setattr(tracking, "_surface_exits", fails_third)
        assert self.track(parallel_box, out, "--target-candidates", 100) == 4
        assert "zero-length terminal segment" in capsys.readouterr().err
        assert len(calls) == 3
        assert [p.name for p in tmp_path.iterdir()] == (["c.strl"] if existing else [])
        assert not existing or out.read_bytes() == b"old bytes"

    def test_batches_stream_into_the_set_bytes(self, small_box, tmp_path, monkeypatch):
        whole = tmp_path / "whole.strl"
        assert self.track(small_box, whole, "--spacing", "2") == 0
        monkeypatch.setattr(tracking, "_BATCH", 7)
        assert self.track(small_box, tmp_path / "batched.strl", "--spacing", "2") == 0
        assert (tmp_path / "batched.strl").read_bytes() == whole.read_bytes()

    def test_out_that_is_no_regular_file_exits_3(self, small_box, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert self.track(small_box, fifo) == 3
        assert "regular file" in capsys.readouterr().err
        assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_baseline_filter_holds_its_float32_output_and_one_batch(parallel_box, tmp_path, traced_peak):
    # filter --method 3ds re-tracks the whole mask into a scratch file, one
    # batch at a time, and copies its k picks from it. Besides its inputs,
    # seeds and what the command holds before it starts (the parser and the
    # mask, measured on a run that stops there), it holds what streaming one
    # batch of seeds to a file holds: the batch's voxel-run records and one
    # block of its tracks (tracking module docstring, "Memory").
    mask, field = load_mask(parallel_box["mask"]), load_field(parallel_box["field"])
    seeds = seeds_3d(mask, 1.0).points
    assert len(seeds) > tracking._BATCH

    def stream(batch):
        return save_streamlines(tmp_path / "one.strl", tracking.reconstruct_batches(field, mask, batch))

    one_batch = max(traced_peak(stream, SeedSet(seeds[lo : lo + tracking._BATCH]))[1]
                    for lo in range(0, len(seeds), tracking._BATCH))
    inputs = field.directions.nbytes + field.fa.nbytes + seeds.nbytes
    out = tmp_path / "b.strl"
    argv = ["filter", "--method", "3ds", "--spacing", "1", "-k", "100",
            "--mask", parallel_box["mask"], "--out", out]
    code, start = traced_peak(run, argv)
    assert code == 3 and not out.exists()  # no --field
    code, peak = traced_peak(run, [*argv, "--field", parallel_box["field"]])
    assert code == 0 and len(load_streamlines(out)) == 100
    bound = one_batch + inputs + start
    assert peak <= bound, (f"peak {peak} B over bound {bound} B = one batch streamed {one_batch} B"
                           f" + inputs {inputs} B + start {start} B")


def test_fss_filter_holds_the_resampled_candidates_and_one_block(tmp_path, monkeypatch, traced_peak):
    # filter --method fss reads its candidates one block at a time and keeps
    # only their m resampled points (24 bytes each, held at most three times
    # over by the traversal): besides what the command holds before it
    # starts, its peak grows with the number of candidates and the block
    # budget, not with their points. The same 400 candidates with twice the
    # points each leave it flat.
    monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 1 << 12)
    mask = VoxelMask(np.ones((10, 10, 40), dtype=np.uint8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    save_mask(tmp_path / "m.mskv", mask)
    rng = np.random.default_rng(12)
    n, m = 400, 12
    ends = np.column_stack([rng.uniform(1, 9, (n, 2)), rng.uniform(1, 5, n),
                            rng.uniform(1, 9, (n, 2)), rng.uniform(35, 39, n)])
    argv = ["filter", "--method", "fss", "-k", 100, "--m", m, "--mask", tmp_path / "m.mskv",
            "--out", tmp_path / "o.strl"]
    code, start = traced_peak(run, argv)
    assert code == 3  # no --candidates

    def peak(points):
        t = np.linspace(0.0, 1.0, points)[:, None]
        path = tmp_path / f"{points}.strl"
        save_streamlines(path, pack([(1 - t) * e[:3] + t * e[3:] for e in ends]))
        code, peak = traced_peak(run, [*argv, "--candidates", path])
        assert code == 0 and len(load_streamlines(tmp_path / "o.strl")) == 100
        return peak

    one, two = peak(200), peak(400)
    assert two < 1.1 * one
    assert one <= start + 3 * n * m * 24 + 100 * streamline_mod.BLOCK_POINTS


def test_arch_scratch_does_not_grow_with_the_points(tmp_path, monkeypatch, traced_peak):
    # arch reads its input twice, one block at a time, and keeps a few floats
    # per tract (architecture module docstring): the same 400 tracts with
    # twice the points each leave its peak flat.
    monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 1 << 12)
    mask = VoxelMask(np.ones((10, 10, 40), dtype=np.uint8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    save_mask(tmp_path / "m.mskv", mask)
    rng = np.random.default_rng(13)
    ends = np.column_stack([rng.uniform(1, 9, (400, 2)), rng.uniform(1, 5, 400),
                            rng.uniform(1, 9, (400, 2)), rng.uniform(35, 39, 400)])

    def peak(points):
        t = np.linspace(0.0, 1.0, points)[:, None]
        path = tmp_path / f"{points}.strl"
        save_streamlines(path, pack([(1 - t) * e[:3] + t * e[3:] for e in ends]))
        code, peak = traced_peak(run, ["arch", "--streamlines", path, "--mask", tmp_path / "m.mskv",
                                       "--out", tmp_path / f"{points}.csv"])
        assert code == 0
        return peak

    one, two = peak(200), peak(400)
    assert two < 1.1 * one, (one, two)


def test_metrics_scratch_does_not_grow_with_the_points(tmp_path, monkeypatch, traced_peak):
    # metrics reads its input one block at a time and keys one small range
    # of it at a time (metrics module docstring): the same 400 tracts with
    # twice the points each leave its peak flat.
    monkeypatch.setattr(streamline_mod, "BLOCK_POINTS", 1 << 12)
    mask = VoxelMask(np.ones((10, 10, 40), dtype=np.uint8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    save_mask(tmp_path / "m.mskv", mask)
    rng = np.random.default_rng(14)
    ends = np.column_stack([rng.uniform(1, 9, (400, 2)), rng.uniform(1, 5, 400),
                            rng.uniform(1, 9, (400, 2)), rng.uniform(35, 39, 400)])

    def peak(points):
        t = np.linspace(0.0, 1.0, points)[:, None]
        path = tmp_path / f"{points}.strl"
        save_streamlines(path, pack([(1 - t) * e[:3] + t * e[3:] for e in ends]))
        code, peak = traced_peak(run, ["metrics", "--streamlines", path, "--mask", tmp_path / "m.mskv",
                                       "--out-csv", tmp_path / f"{points}.csv",
                                       "--out-density", tmp_path / f"{points}.dens"])
        assert code == 0
        return peak

    one, two = peak(200), peak(400)
    assert two < 1.1 * one, (one, two)
