"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

import muscletract as mt
from muscletract.cli import _subsample_rows
from muscletract.formats import (
    load_density,
    load_field,
    load_mask,
    load_streamlines,
    read_csv,
    save_density,
    save_field,
    save_mask,
    save_streamlines,
)
from muscletract.grid import OrientationField, VoxelMask
from muscletract.metrics import DensityMap
from muscletract.streamline import _resample_set, mdf_rows
from reference_streamline import arc_length, mdf, pack, resample


def mdf_to_one(stack, q):
    """MDF from every streamline of an (n, m, 3) stack to one (m, 3) streamline."""
    return mdf_rows(stack.transpose(2, 1, 0), q)

mpmath.mp.dps = 40

ENSEMBLE_K = 400


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def ensemble_spec(rng, i):
    """Randomized curved / unipennate phantoms with heterogeneous fiber lengths."""
    if i % 2 == 0:
        return mt.PhantomSpec(
            shape="box_unipennate",
            pennation_deg=float(rng.uniform(24, 32)),
            dims_mm=(10.0, float(rng.uniform(34, 42)), float(rng.uniform(12, 15))),
            jitter_deg=float(rng.uniform(0.4, 1.2)),
            seed=i,
        )
    return mt.PhantomSpec(
        shape="curved_arc",
        arc_radius_mm=float(rng.uniform(12, 16)),
        arc_sweep_deg=float(rng.uniform(85, 110)),
        arc_thickness_mm=float(rng.uniform(5, 7)),
        dims_mm=(20.0, float(rng.uniform(26, 32)), 20.0),
        jitter_deg=float(rng.uniform(0.4, 1.2)),
        seed=i,
    )


def run_metrics(sset, mask):
    dmap, tm = mt.density(sset, mask)
    occ_counts = dmap.counts[mask.occupancy]
    # independent recount of SDCV from raw sums over the same support
    n = occ_counts.size
    mean = occ_counts.sum() / n
    var = ((occ_counts - mean) ** 2).sum() / n
    recount_sdcv = math.sqrt(var) / mean if mean > 0 else float("nan")
    return {
        "tm": tm,
        "nonzero_fraction": (occ_counts > 0).sum() / n,
        "coverage_fn": mt.coverage(sset, mask),
        "recount_sdcv": recount_sdcv,
    }


@pytest.fixture(scope="module")
def ensemble(reconstructed):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    instances = []
    for i in range(10):
        spec = ensemble_spec(rng, i)
        mask, field, _ = mt.make_phantom(spec)
        cfg = mt.TrackingConfig()
        cands = reconstructed(field, mask, mt.seeds_3d(mask, 1.0), cfg)
        trace = mt.fss_select(cands, mt.FSSConfig(k=ENSEMBLE_K))
        fss = cands.take(trace.selected_ids)
        base3 = cands.take(_subsample_rows(len(cands), ENSEMBLE_K))
        cands2 = reconstructed(field, mask, mt.seeds_2d(mask, 5), cfg)
        base2 = cands2.take(_subsample_rows(len(cands2), ENSEMBLE_K))

        runs = {m: run_metrics(s, mask) for m, s in (("fss", fss), ("3ds", base3), ("2ds", base2))}

        sub = np.random.default_rng(1000 + i).choice(len(cands), size=ENSEMBLE_K, replace=False)
        instances.append(
            {
                "runs": runs,
                "fss_fl_median": float(np.median(mt.arc_lengths(fss.points, fss.offsets))),
                "random_fl_median": float(
                    np.median(mt.arc_lengths(cands.points, cands.offsets)[sub])
                ),
                "trace": trace,
                "selected_stack": _resample_set(fss, 12)[0],
            }
        )
    elapsed = time.perf_counter() - t0
    return {"instances": instances, "elapsed": elapsed}


def test_criterion_1_ordering_reproduction(ensemble):
    sc_ok = sdcv_ok = 0
    for inst in ensemble["instances"]:
        tms = {m: r["tm"] for m, r in inst["runs"].items()}
        sc_ok += tms["fss"].sc >= tms["3ds"].sc >= tms["2ds"].sc
        sdcv_ok += tms["fss"].sdcv <= tms["3ds"].sdcv <= tms["2ds"].sdcv
    elapsed = ensemble["elapsed"]
    ok = sc_ok >= 9 and sdcv_ok >= 9 and elapsed < 60.0
    report(
        1,
        "ordering-reproduction",
        ok,
        f"(SC chain {sc_ok}/10, SDCV chain {sdcv_ok}/10, runtime {elapsed:.1f}s < 60s)",
    )


def test_criterion_2_length_bias_reduction(ensemble):
    wins = sum(
        inst["fss_fl_median"] < inst["random_fl_median"] for inst in ensemble["instances"]
    )
    report(2, "length-bias-reduction", wins >= 9, f"(median FL lower in {wins}/10)")


def random_streamline_set(rng, n=100):
    out = []
    for _ in range(n):
        start = rng.uniform(0.0, 40.0, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        bend = rng.normal(0.0, 0.15, 3)
        ts = np.linspace(0.0, rng.uniform(6.0, 45.0), rng.integers(4, 9))
        pts = start + ts[:, None] * direction + (ts**2)[:, None] * bend * 0.01
        out.append(pts)
    return pack(out)


def naive_farthest_first_ids(cands, k):
    """O(n^2 k) oracle: full scalar-MDF matrix, min-over-selected recomputed
    from scratch at every step (no incremental caching)."""
    streamlines = list(cands)
    rs = [resample(s, 12) for s in streamlines]
    n = len(rs)
    pair = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pair[i, j] = pair[j, i] = mdf(rs[i], rs[j])
    lengths = [arc_length(s) for s in streamlines]
    best = 0
    for i in range(1, n):
        if lengths[i] > lengths[best]:
            best = i
    selected = [best]
    for _ in range(k - 1):
        dmin = pair[:, selected].min(axis=1)
        dmin[selected] = -np.inf
        selected.append(int(np.argmax(dmin)))
    return selected


@pytest.fixture(scope="module")
def oracle_runs():
    rng = np.random.default_rng(77)
    runs = []
    for _ in range(50):
        cands = random_streamline_set(rng)
        per_set = {"cands": cands, "runs": {}}
        for k in (1, 10, 50, 100):
            trace = mt.fss_select(cands, mt.FSSConfig(k=k))
            per_set["runs"][k] = {
                "ids": list(trace.selected_ids),
                "trace": trace,
                "stack": _resample_set(cands.take(trace.selected_ids), 12)[0],
            }
        runs.append(per_set)
    return runs


def test_criterion_3_fss_oracle_equivalence(oracle_runs):
    mismatches = 0
    for per_set in oracle_runs:
        want_full = naive_farthest_first_ids(per_set["cands"], 100)
        for k in (1, 10, 50, 100):
            if per_set["runs"][k]["ids"] != want_full[:k]:
                mismatches += 1
    report(
        3,
        "fss-oracle-equivalence",
        mismatches == 0,
        f"(50 sets x k in {{1,10,50,100}}, {mismatches} mismatches)",
    )


def _check_trace(trace, stack):
    d = trace.selection_distance
    assert d[0] == np.inf
    if len(d) > 2:
        assert (d[2:] <= d[1:-1]).all()
    if len(stack) > 1:
        final = d[-1]
        for i in range(len(stack)):
            row = mdf_to_one(stack, stack[i])
            row[i] = np.inf
            assert row.min() >= final


def test_criterion_4_monotonicity_and_separation(ensemble, oracle_runs):
    checked = 0
    for inst in ensemble["instances"]:
        _check_trace(inst["trace"], inst["selected_stack"])
        checked += 1
    for per_set in oracle_runs:
        for k in (1, 10, 50, 100):
            run = per_set["runs"][k]
            _check_trace(run["trace"], run["stack"])
            checked += 1
    report(4, "farthest-first-invariants", True, f"(exact on {checked} runs)")


def test_criterion_5_mdf_properties():
    rng = np.random.default_rng(55)
    n = 10_000
    worst_sym = 0.0
    worst_flip = 0.0
    worst_ident = 0.0
    def lib_mdf(p, q):
        return float(mdf_rows(p.T[:, :, None], q)[0])

    for _ in range(n):
        a = np.cumsum(rng.uniform(-2, 2, (12, 3)), axis=0)
        b = np.cumsum(rng.uniform(-2, 2, (12, 3)), axis=0)
        d = lib_mdf(a, b)
        worst_sym = max(worst_sym, abs(lib_mdf(b, a) - d))
        worst_flip = max(worst_flip, abs(lib_mdf(a[::-1], b) - d), abs(lib_mdf(a, b[::-1]) - d))
        worst_ident = max(worst_ident, lib_mdf(a, a[::-1]), lib_mdf(a, a))
    ok = worst_sym == 0.0 and worst_flip <= 1e-12 and worst_ident <= 1e-12
    report(
        5,
        "mdf-properties",
        ok,
        f"(10^4 pairs: symmetry {worst_sym:.1e}, flip {worst_flip:.1e}, identity {worst_ident:.1e})",
    )


def _measure_default_phantom(reconstructed, scale=1.0):
    spec = mt.PhantomSpec(
        shape="box_unipennate",
        pennation_deg=10.0,
        dims_mm=(20.0 * scale, 12.0 * scale, 60.0 * scale),
    )
    mask, field, gt = mt.make_phantom(spec)
    sset = reconstructed(field, mask, mt.seeds_3d(mask, 1.0 * scale))
    loa = mt.LineOfAction(gt.line_of_action, 1.0, "endpoint_fit")
    return mt.summarize(mask, *mt.tract_ends(sset), sset, loa), gt


def test_criterion_6_phantom_ground_truth(reconstructed):
    arch, gt = _measure_default_phantom(reconstructed)
    pa_err = abs(arch.pa_median - 10.0)
    fl_err = abs(arch.fl_median - gt.fiber_length_mm) / gt.fiber_length_mm
    pcsa_exact = arch.pcsa == arch.mv * math.cos(math.radians(arch.pa_median)) / arch.fl_median
    arch2, _ = _measure_default_phantom(reconstructed, scale=2.0)
    scale_err = abs(arch2.pcsa / arch.pcsa - 4.0) / 4.0
    ok = pa_err < 0.5 and fl_err < 0.02 and pcsa_exact and scale_err < 0.03
    report(
        6,
        "phantom-ground-truth",
        ok,
        f"(pa err {pa_err:.3f} deg, fl err {100 * fl_err:.2f}%, Eq-identity {pcsa_exact}, "
        f"scale-law err {100 * scale_err:.2f}%)",
    )


def test_criterion_7_classification(reconstructed):
    spec = mt.PhantomSpec(shape="box_unipennate", pennation_deg=10.0, dims_mm=(16, 10, 90))
    mask, field, _ = mt.make_phantom(spec)
    sset = reconstructed(field, mask, mt.seeds_3d(mask, 2.0))
    loa_pen = mt.line_of_action(*sset.endpoints())
    arch_pen = mt.summarize(mask, *mt.tract_ends(sset), sset, loa_pen)

    rng = np.random.default_rng(7)
    scattered = []
    for _ in range(80):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        scattered.append(np.array([25 * u, -25 * u + rng.normal(0, 0.2, 3)]))
    sph = pack(scattered)
    loa_sph = mt.line_of_action(*sph.endpoints())
    cube = VoxelMask(np.ones((5, 5, 5), dtype=bool))
    arch_sph = mt.summarize(cube, *mt.tract_ends(sph), sph, loa_sph)

    ok = (
        loa_pen.r2 > 0.9
        and arch_pen.arch_type == "pennate"
        and loa_sph.r2 < 0.5
        and arch_sph.arch_type == "non_pennate"
    )
    report(
        7,
        "architectural-classification",
        ok,
        f"(unipennate r2 {loa_pen.r2:.3f} -> {arch_pen.arch_type}, "
        f"scattered r2 {loa_sph.r2:.3f} -> {arch_sph.arch_type})",
    )


def test_criterion_8_metrics_consistency(ensemble):
    worst = 0.0
    exact = True
    runs = 0
    for inst in ensemble["instances"]:
        for r in inst["runs"].values():
            exact &= r["tm"].sc == r["nonzero_fraction"] == r["coverage_fn"]
            worst = max(worst, abs(r["tm"].sdcv - r["recount_sdcv"]))
            runs += 1
    ok = exact and worst <= 1e-12
    report(
        8,
        "metrics-consistency",
        ok,
        f"({runs} runs: coverage identity exact={exact}, sdcv recount err {worst:.1e})",
    )


def quadrature_two_tailed_p(t, df):
    df = mpmath.mpf(df)
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
    tail = mpmath.quad(lambda x: norm * (1 + x * x / df) ** (-(df + 1) / 2), [abs(t), mpmath.inf])
    return float(2 * tail)


def test_criterion_9_statistics():
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(4, 16))
        a = rng.normal(10.0, 2.0, n)
        b = a + rng.normal(0.4, 1.0, n)
        res = mt.t_paired(a, b)
        want = quadrature_two_tailed_p(res.t, n - 1)
        worst = max(worst, abs(res.p - want))
    ident = mt.t_paired([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    ok = worst <= 1e-8 and ident.t == 0.0 and ident.p == 1.0
    report(
        9,
        "t-test-oracle",
        ok,
        f"(20 datasets vs quadrature: worst {worst:.1e}; identical pairs t=0 p=1)",
    )


def _random_mask(rng):
    dims = tuple(int(d) for d in rng.integers(2, 10, 3))
    occ = rng.random(dims) > 0.4
    occ.flat[0] = True
    vs = rng.uniform(0.5, 3.0, 3).astype(np.float32).astype(np.float64)
    org = rng.uniform(-10, 10, 3).astype(np.float32).astype(np.float64)
    return VoxelMask(occ, vs, org)


def test_criterion_10_formats_and_cli(tmp_path):
    rng = np.random.default_rng(4242)
    files = 0
    byte_exact = True

    for _ in range(25):
        sls = pack(
            [
                rng.uniform(-50, 50, (int(rng.integers(2, 30)), 3))
                .astype(np.float32)
                .astype(np.float64)
                for _ in range(int(rng.integers(1, 8)))
            ]
        )
        p1, p2 = tmp_path / "a.strl", tmp_path / "b.strl"
        save_streamlines(p1, sls)
        save_streamlines(p2, load_streamlines(p1))
        byte_exact &= p1.read_bytes() == p2.read_bytes()
        files += 1

    for _ in range(25):
        p1, p2 = tmp_path / "a.mskv", tmp_path / "b.mskv"
        save_mask(p1, _random_mask(rng))
        save_mask(p2, load_mask(p1))
        byte_exact &= p1.read_bytes() == p2.read_bytes()
        files += 1

    for _ in range(25):
        mask = _random_mask(rng)
        d = rng.normal(size=mask.dims + (3,))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        d = d.astype(np.float32).astype(np.float64)
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        fa = (rng.random(mask.dims) * 0.8).astype(np.float32).astype(np.float64)
        field = OrientationField(d, fa, mask.voxel_size, mask.origin)
        p1, p2 = tmp_path / "a.ornt", tmp_path / "b.ornt"
        save_field(p1, field)
        save_field(p2, load_field(p1))
        byte_exact &= p1.read_bytes() == p2.read_bytes()
        files += 1

    for _ in range(25):
        mask = _random_mask(rng)
        dmap = DensityMap(rng.integers(0, 9, mask.dims), mask.voxel_size, mask.origin)
        p1, p2 = tmp_path / "a.dens", tmp_path / "b.dens"
        save_density(p1, dmap)
        save_density(p2, load_density(p1))
        byte_exact &= p1.read_bytes() == p2.read_bytes()
        files += 1

    # full default pipeline through the installed CLI
    t0 = time.perf_counter()
    base = [sys.executable, "-m", "muscletract"]
    steps = [
        base + ["phantom", "--out-mask", str(tmp_path / "m.mskv"),
                "--out-field", str(tmp_path / "f.ornt"), "--out-truth", str(tmp_path / "t.txt")],
        base + ["track", "--field", str(tmp_path / "f.ornt"), "--mask", str(tmp_path / "m.mskv"),
                "--strategy", "3ds", "--out", str(tmp_path / "cand.strl")],
        base + ["filter", "--method", "fss", "--candidates", str(tmp_path / "cand.strl"),
                "--mask", str(tmp_path / "m.mskv"), "--trace", str(tmp_path / "trace.csv"),
                "--out", str(tmp_path / "fss.strl")],
        base + ["metrics", "--streamlines", str(tmp_path / "fss.strl"),
                "--mask", str(tmp_path / "m.mskv"), "--out-csv", str(tmp_path / "metrics.csv"),
                "--out-density", str(tmp_path / "d.dens")],
        base + ["arch", "--streamlines", str(tmp_path / "fss.strl"),
                "--mask", str(tmp_path / "m.mskv"), "--out", str(tmp_path / "arch.csv")],
    ]
    exit_codes = [subprocess.run(cmd, capture_output=True).returncode for cmd in steps]
    elapsed = time.perf_counter() - t0

    artifacts = ["m.mskv", "f.ornt", "t.txt", "cand.strl", "fss.strl", "trace.csv",
                 "metrics.csv", "d.dens", "arch.csv"]
    all_exist = all((tmp_path / a).exists() for a in artifacts)
    n_filtered = len(load_streamlines(tmp_path / "fss.strl"))

    ok = byte_exact and files == 100 and exit_codes == [0] * 5 and all_exist and elapsed < 30.0 and n_filtered == 3000
    report(
        10,
        "formats-and-cli-smoke",
        ok,
        f"({files} round-trips byte-exact={byte_exact}; pipeline exits {exit_codes}, "
        f"{n_filtered} streamlines, {elapsed:.1f}s < 30s)",
    )
