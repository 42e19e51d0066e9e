"""Mutation audit: small wrong changes to the library that tier-1 must catch.

Each mutant replaces one exact piece of text in one file under src/ and names
the test expected to kill it. For each mutant the script copies src/, tests/
and pyproject.toml to a temporary directory, applies the replacement there
(the working tree is never edited), and runs the named test. If that test
passes, it runs the whole tier-1 suite with -x. A mutant is killed when a run
fails, and survives when both pass. Before any mutant, the named tests run
once on an unmutated copy, where all of them must pass.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only the named mutants

It prints a Markdown table with one row per mutant. A survivor either gets a
test that kills it or an entry here, marked equivalent, that says why it
changes no output. Equivalent mutants run too, and must survive: a test that
kills one pins what the library documents as free. The script exits 1 if a
mutant survives that is not marked equivalent, if one marked equivalent is
killed, or if a named test fails on the unmutated copy.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    test: str  # pytest node id of the test expected to kill it
    why: str
    equivalent: bool = False  # changes no output; why says why


MUTANTS = (
    Mutant(
        "fss_ties_to_highest", "src/muscletract/sampling.py",
        "        j = int(np.argmax(dmin))\n",
        "        j = len(dmin) - 1 - int(np.argmax(dmin[::-1]))\n",
        "tests/test_sampling.py::TestPrunedUpdate::test_matches_unpruned_loop_on_adversarial_sets",
        "FSS breaks ties in dmin to the highest position, not the lowest",
    ),
    Mutant(
        "median_upper_middle", "src/muscletract/architecture.py",
        "    return float(np.partition(x, kth)[kth[0] : half + 1].mean())\n",
        "    return float(np.partition(x, kth)[half])\n",
        "tests/test_architecture.py::TestMedian::test_equals_np_median",
        "_median takes the upper middle value of an even count",
    ),
    Mutant(
        "mdf_plain_mean", "src/muscletract/streamline.py",
        "    return _palindromic_mean(np.sqrt(dx * dx + dy * dy + dz * dz).T)\n",
        "    return np.sqrt(dx * dx + dy * dy + dz * dz).T.mean(axis=-1)\n",
        "tests/test_streamline.py::TestMDF::test_batch_bit_identical_to_scalar",
        "MDF's mean distance as a plain mean, not summed in palindromic pairs",
    ),
    Mutant(
        "extension_threshold", "src/muscletract/tracking.py",
        "    extend = (tau > 1e-12) & ~ran_away[:, None]\n",
        "    extend = (tau > 1e-3) & ~ran_away[:, None]\n",
        "tests/test_tracking.py::TestMatchesStepwiseReference::test_reconstruct",
        "an exit point is added only 1e-3 mm out, not 1e-12 mm",
    ),
    Mutant(
        "fss_slack_zero", "src/muscletract/sampling.py",
        "    slack = 16 * (cfg.m + 8) * 2.0**-53 * float(np.abs(coords).max()) + _UNDERFLOW_MARGIN\n",
        "    slack = 0.0\n",
        "tests/test_sampling.py::TestCentroidBound::test_symmetric_translations",
        "the centroid bound prunes with no rounding margin",
    ),
    Mutant(
        "chord_bound_margin", "src/muscletract/tracking.py",
        "(added <= cfg.max_extrap_fraction * chord * (1.0 - rel))",
        "(added <= cfg.max_extrap_fraction * chord)",
        "tests/test_tracking.py::TestChordBound::test_matches_reference_where_the_fraction_lands",
        "the chord bound accepts an extrapolation with no rounding margin",
    ),
    Mutant(
        "voxel_keys_dt", "src/muscletract/metrics.py",
        "        dt = 1e-7 / np.maximum(seg_len[seg_idx], 1e-12)\n",
        "        dt = 1e-5 / np.maximum(seg_len[seg_idx], 1e-12)\n",
        "tests/test_metrics.py::TestVoxelize::test_grazing_a_voxel_edge",
        "face crossings are sampled 100 times farther from the face",
    ),
    Mutant(
        "ray_exits_eps", "src/muscletract/tracking.py",
        "    eps = 1e-9\n",
        "    eps = 1e-6\n",
        "tests/test_tracking.py::TestExtrapolate::test_ray_exit_from_just_inside_a_face",
        "an extrapolation ray's start voxel is found 1e-6 mm along the ray",
    ),
    Mutant(
        "writer_skips_float32_check", "src/muscletract/formats.py",
        "_validate(points, offsets[lo : hi + 1] - offsets[lo], as_float32=True)",
        "_validate(points, offsets[lo : hi + 1] - offsets[lo], as_float32=False)",
        "tests/test_formats.py::TestStreamlineRoundTrip::test_writer_refuses_what_the_reader_rejects",
        "the STRL writer validates a float64 block, not the float32 rounding it writes",
    ),
    Mutant(
        "sc_counts_empty_voxels", "src/muscletract/metrics.py",
        "    sc = float((occ_counts > 0).sum() / mask.n_occupied)\n",
        "    sc = float((occ_counts >= 0).sum() / mask.n_occupied)\n",
        "tests/test_metrics.py::TestCoverage::test_empty_set_zero",
        "SC counts every occupied voxel as covered",
    ),
    Mutant(
        "count_grid_keeps_last_range", "src/muscletract/metrics.py",
        "            np.add.at(counts, found % n_vox, 1)\n",
        "            counts = np.bincount(found % n_vox, minlength=n_vox)\n",
        "tests/test_metrics.py::TestStreamedDensity::test_stream_equals_the_whole_set",
        "the voxel counts keep only the last key range",
    ),
    Mutant(
        "count_grid_total_of_last_set", "src/muscletract/metrics.py",
        "        total += len(sset)\n",
        "        total = len(sset)\n",
        "tests/test_metrics.py::TestStreamedDensity::test_info_line_counts_the_streamlines_of_every_set",
        "the INFO line's streamline total counts only the last set of a stream",
    ),
    Mutant(
        "count_grid_buffered_add", "src/muscletract/metrics.py",
        "            np.add.at(counts, found % n_vox, 1)\n",
        "            counts[found % n_vox] += 1\n",
        "tests/test_metrics.py::TestStreamedDensity::test_streamlines_of_one_range_share_voxels",
        "a voxel that several streamlines of one key range cross counts once",
    ),
    Mutant(
        "writer_check_unrounded", "src/muscletract/streamline.py",
        "                col = col.astype(np.float32)\n",
        "                col = col\n",
        "tests/test_formats.py::TestStreamlineRoundTrip::test_writer_refuses_what_the_reader_rejects",
        "the STRL writer compares float64 coordinates where it should compare their float32 words",
    ),
    Mutant(
        "reader_keeps_float32_words", "src/muscletract/formats.py",
        "        return _float64(words[coords]).reshape(-1, 3)\n",
        "        return words[coords].reshape(-1, 3)\n",
        "tests/test_formats.py::TestStreamlineRoundTrip::test_signaling_nan_coordinate_rejected",
        "the STRL reader yields the file's float32 words, which a later cast converts with a warning",
    ),
    Mutant(
        "run_record_unsigned", "src/muscletract/tracking.py",
        "np.where(flip, -take, take)",
        "np.where(flip, take, take)",
        "tests/test_tracking.py::TestMatchesStepwiseReference::test_propagate_kernel",
        "a run record drops the sign that says the pass negated the field vector",
    ),
    Mutant(
        "runs_shortest_first", "src/muscletract/tracking.py",
        "    np.negative(key, out=key)\n",
        "",
        "tests/test_tracking.py::TestMatchesStepwiseReference::test_propagate_kernel",
        "the runs of a block are ordered shortest first, so the runs still adding are no prefix",
    ),
    Mutant(
        "runs_store_not_reset", "src/muscletract/tracking.py",
        "    runs.n = 0\n",
        "",
        "tests/test_tracking.py::test_stores_grow_when_a_later_batch_makes_more_runs",
        "a half's store keeps the last batch's records when the next batch fills it",
    ),
    Mutant(
        "box_median_no_sqrt", "src/muscletract/phantom.py",
        "    return top * min(1.0, math.sqrt(b / (2.0 * a)))\n",
        "    return top * min(1.0, b / (2.0 * a))\n",
        "tests/test_phantom.py::TestBoxMedianFiberLength::test_matches_the_quadrature",
        "the box median's closed form without its square root",
    ),
    Mutant(
        "box_median_walls_swapped", "src/muscletract/phantom.py",
        "    if run <= width:\n",
        "    if run >= width:\n",
        "tests/test_phantom.py::TestBoxMedianFiberLength::test_matches_the_quadrature",
        "the box median takes the plateau from the x walls when the fibers span the length",
    ),
    Mutant(
        "phantom_outside_directions_kept", "src/muscletract/phantom.py",
        "    directions[~occ] = 0.0\n",
        "",
        "tests/test_phantom.py::test_grid_bytes_are_pinned",
        "a phantom's field keeps its shape's directions outside the muscle",
    ),
    Mutant(
        "lookup_bound_inclusive", "src/muscletract/grid.py",
        "        ok = idx.view(np.uint64) < np.asarray(dims, dtype=np.uint64)\n",
        "        ok = idx.view(np.uint64) <= np.asarray(dims, dtype=np.uint64)\n",
        "tests/test_grid.py::TestLookup::test_matches_bounds_and_occupancy",
        "an index equal to a grid dim counts as in-grid",
    ),
    Mutant(
        "unit_tol_loose", "src/muscletract/grid.py",
        "UNIT_TOL = 1e-6\n",
        "UNIT_TOL = 1e-5\n",
        "tests/test_grid.py::TestOrientationField::test_unit_tolerance",
        "a field direction may be 1e-5 off unit norm",
    ),
    Mutant(
        "frame_ignores_origin", "src/muscletract/grid.py",
        "            and np.array_equal(self.origin, other.origin)\n",
        "",
        "tests/test_grid.py::TestFrame::test_every_part_must_match",
        "two grids with different origins share a frame",
    ),
    Mutant(
        "phantom_voxel_budget_off", "src/muscletract/phantom.py",
        "MAX_VOXELS = 2**24\n",
        "MAX_VOXELS = math.inf\n",
        "tests/test_cli.py::TestPhantomCommand::test_a_grid_over_the_voxel_budget_exits_3",
        "a phantom grid of any size is allocated",
    ),
    Mutant(
        "loader_band_loose", "src/muscletract/formats.py",
        "        if not exc.worst <= 1e-4:  # NaN fails\n",
        "        if not exc.worst <= 1e-3:  # NaN fails\n",
        "tests/test_formats.py::TestFieldRoundTrip::test_beyond_file_precision_is_rejected",
        "an ORNT file 1e-3 off unit norm is renormalized, not refused",
    ),
    Mutant(
        "data_error_exit_4", "src/muscletract/errors.py",
        "    exit_code = 3\n",
        "    exit_code = 4\n",
        "tests/test_formats.py::TestFieldRoundTrip::test_beyond_file_precision_is_rejected",
        "bad input data exits 4, the code of degenerate geometry",
    ),
    Mutant(
        "numeric_error_exit_1", "src/muscletract/errors.py",
        "    exit_code = 4\n",
        "    exit_code = 1\n",
        "tests/test_cli.py::TestExitCodes::test_degenerate_data_is_4",
        "degenerate geometry exits 1, the code of an unexpected failure",
    ),
    Mutant(
        "non_unit_not_a_spec_error", "src/muscletract/errors.py",
        "class NonUnitError(InvalidSpecError):\n",
        "class NonUnitError(DataError):\n",
        "tests/test_grid.py::TestOrientationField::test_unit_tolerance",
        "a field off unit norm raises no InvalidSpecError",
    ),
    Mutant(
        "framed_open_upper_bound", "src/muscletract/cli.py",
        "            ok = (pts >= lo) & (pts <= hi)\n",
        "            ok = (pts >= lo) & (pts < hi)\n",
        "tests/test_cli.py::TestFrameCheck::test_only_inside_point_on_last_streamline_accepted",
        "the frame check leaves out the upper faces of the mask grid's box",
    ),
    Mutant(
        "main_exit_code_fixed", "src/muscletract/cli.py",
        "        return exc.exit_code\n",
        "        return 3\n",
        "tests/test_cli.py::TestExitCodes::test_degenerate_data_is_4",
        "every package error exits 3",
    ),
    Mutant(
        "os_error_exit_1", "src/muscletract/cli.py",
        "        return 3\n",
        "        return 1\n",
        "tests/test_cli.py::TestExitCodes::test_missing_file_is_3",
        "a file that cannot be opened exits 1, not 3",
    ),
    Mutant(
        "betainc_log1p_sign", "src/muscletract/stats.py",
        "        + b * math.log1p(-x)\n",
        "        + b * math.log1p(x)\n",
        "tests/test_stats.py::TestTTestPValues::test_matches_mpmath_betainc",
        "the prefactor of I_x(a, b) takes b log(1 + x), not b log(1 - x)",
    ),
    Mutant(
        "lentz_eps_loose", "src/muscletract/stats.py",
        "_EPS = 1e-16\n",
        "_EPS = 1e-6\n",
        "tests/test_stats.py::TestTTestPValues::test_matches_mpmath_betainc",
        "the continued fraction stops once a step changes it by under 1e-6",
    ),
    Mutant(
        "paired_sd_population", "src/muscletract/stats.py",
        "    sd = float(d.std(ddof=1))\n",
        "    sd = float(d.std(ddof=0))\n",
        "tests/test_stats.py::TestPairedT::test_fixed_ten_pairs_against_quadrature",
        "the paired t statistic uses the population, not the sample, standard deviation",
    ),
    Mutant(
        "pass_steps_no_margin", "src/muscletract/tracking.py",
        "    return min(diagonal, math.floor(chord) + 2)\n",
        "    return min(diagonal, math.floor(chord))\n",
        "tests/test_tracking.py::TestPassLength::test_the_chord_bound_splits_no_run",
        "the chord bound without its margin: a run that takes the voxel's longest chord needs a "
        "second pass",
    ),
    Mutant(
        "batch_ignores_mask_extent", "src/muscletract/tracking.py",
        "    size = max(1, min(_BATCH, _BATCH_RUNS // sum(mask.dims)))\n",
        "    size = max(1, min(_BATCH, _BATCH_RUNS))\n",
        "tests/test_cli.py::TestStreamedTrack::test_peak_does_not_follow_the_fibre_length",
        "a batch holds _BATCH seeds whatever the mask's voxel extent",
    ),
    Mutant(
        "mean_direction_unaligned", "src/muscletract/architecture.py",
        "    signs = np.where(chords @ chords[0] < 0, -1.0, 1.0)\n",
        "    signs = np.ones(len(chords))\n",
        "tests/test_architecture.py::TestLineOfAction::"
        "test_mean_direction_ignores_which_end_a_tract_starts_at",
        "the mean-direction line of action averages the chords without aligning their signs",
    ),
    Mutant(
        "runs_unstable_sort", "src/muscletract/tracking.py",
        'np.argsort(key, kind="stable")',
        "np.argsort(key)",
        "tests/test_tracking.py::test_result_does_not_depend_on_batching",
        "the runs of one block and length in another order, which writes the same rows: each "
        "run writes point rows of its own, once",
        equivalent=True,
    ),
)

TIER1 = ["-q", "-x", "--continue-on-collection-errors"]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest(cwd: Path, args: list[str]) -> str | None:
    """None if pytest passes in cwd, on the copy's own src/ only; otherwise
    the first test it reports failed (or its last line of output)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rfE", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines() or ["(no output)"]
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else lines[-1]


def mutate(root: Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[str, str, float]:
    """(verdict, the test that killed it, seconds) for one mutant."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        mutate(root, mutant)
        if pytest(root, ["-q", mutant.test]):
            return "killed", "the named test", time.perf_counter() - t0
        killer = pytest(root, TIER1)
        if killer:
            return "killed", f"tier-1 -x: `{killer}`", time.perf_counter() - t0
        return "survived", "-", time.perf_counter() - t0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="mutant-clean-") as tmp:
        copy_tree(Path(tmp))
        failed = pytest(Path(tmp), ["-q", *sorted({m.test for m in chosen})])
        if failed:
            print(f"a named test fails on the unmutated copy: {failed}", file=sys.stderr)
            return 1
    print("| mutant | file | expected killer | result | killed by | s |")
    print("|---|---|---|---|---|---|")
    wrong = 0
    for mutant in chosen:
        verdict, by, seconds = run(mutant)
        wrong += (verdict == "killed") == mutant.equivalent
        if mutant.equivalent:
            verdict += " (equivalent)"
        print(f"| {mutant.name}: {mutant.why} | `{mutant.path}` | `{mutant.test}` "
              f"| {verdict} | {by} | {seconds:.0f} |", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
