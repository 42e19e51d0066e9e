"""Command-line pipeline: phantom generation, tracking, filtering, metrics,
architecture, and method comparison.

Each run parameter is a field of formats.RunConfig or of a library config it
nests; its flag stores under that run-config key. A flag beats the --config
file, which beats the library default. Every value is checked by the config
or function that uses it, wherever it came from.

Log records of the library (what each stage dropped, and why) go to stderr
at --log-level and above; stdout and the output files do not depend on it.

`track` writes each batch of streamlines as soon as it is reconstructed, to
a temporary file beside --out that then replaces --out, so a failed run
leaves --out as it was; --out must be a regular file or absent.

`filter` holds what it writes, not what it reads. `--method fss` reads its
candidates one block at a time; `--method 3ds|2ds` writes each reconstructed
batch to a scratch file beside --out, named as `track`'s temporary file and
removed however the command ends. Either way the picked records are then
copied byte for byte from that one open source file into --out, count
first, so --out need be neither regular nor seekable (a named pipe will
do), and a run that fails a check writes no --out. --out may not name
--candidates: that exits 3 and leaves the candidates as they were. For
3ds|2ds the directory of --out must take the scratch file, so there an
--out such as /dev/stdout or /dev/fd/N exits 3; fss writes to it.

`metrics` reads --streamlines one block at a time, and `arch` reads it so in
two passes.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric or
degenerate error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import architecture as arch_mod
from . import formats, metrics as metrics_mod, stats
from .errors import ArityError, DataError, FrameMismatchError, MuscleTractError
from .phantom import PhantomSpec, make_phantom
from .sampling import SeedSet, fss_select, seeds_2d, seeds_3d
from .streamline import blocks
from .tracking import reconstruct_batches

METRIC_COLUMNS = ("sc", "sdcv", "fl_median", "ml", "fl_ml_ratio", "pa_median", "pcsa")

ARCH_HEADER = [
    "name", "mv_mm3", "fl_median_mm", "ml_mm", "fl_ml_ratio", "pa_median_deg",
    "pcsa_mm2", "loa_x", "loa_y", "loa_z", "r2", "loa_source", "arch_type",
]


def _parse_dims(text: str) -> tuple[float, float, float]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"dims must look like 20x20x60, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _run_config(args) -> formats.RunConfig:
    """The --config file's values, or the defaults, with every run-parameter
    flag given applied on top."""
    cfg = formats.load_run_config(args.config) if args.config else formats.RunConfig()
    return cfg.updated({key: value for key, value in vars(args).items() if key in formats.RUN_KEYS})


def _framed(sets, mask):
    """Each set of an iterable of sets in turn. STRL files carry no grid
    header: after the last set, raise if they hold streamlines and none of
    their points falls inside the mask grid's bounding box."""
    lo, hi = mask.origin, mask.origin + mask.world_extent
    inside, count = False, 0
    for sset in sets:
        for a, b in blocks(sset.offsets):
            if inside:
                break
            pts = sset.block(a, b)
            ok = (pts >= lo) & (pts <= hi)
            inside = bool((ok[:, 0] & ok[:, 1] & ok[:, 2]).any())
        count += len(sset)
        yield sset
    if count and not inside:
        raise FrameMismatchError("no streamline point falls inside the mask grid")


def _even_picks(n: int, k: int) -> np.ndarray:
    """k indices spread evenly over range(n), starting at 0."""
    return (np.arange(k) * n) // k


def _subsample_rows(n: int, k: int) -> np.ndarray:
    """Positions of k streamlines spread evenly over n."""
    if n < k:
        raise ArityError(f"only {n} streamlines available, need {k}")
    return _even_picks(n, k)


def _scratch_beside(out) -> Path:
    """A file beside out, named after it and this process, that a command
    writes before it is done (module docstring)."""
    out = Path(out)
    return out.with_name(f".{out.name}.{os.getpid()}.part")


def _make_seeds(method: str, mask, cfg: formats.RunConfig) -> SeedSet:
    if method == "3ds":
        return seeds_3d(mask, cfg.spacing_mm)
    return seeds_2d(mask, cfg.n_slices)


_SHAPE_ALIASES = {"box": "box_unipennate", "fusiform": "fusiform", "arc": "curved_arc"}


def cmd_phantom(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(PhantomSpec) if hasattr(args, f.name)}
    if "shape" in given:
        given["shape"] = _SHAPE_ALIASES[given["shape"]]
    spec = PhantomSpec(**given)
    mask, field, gt = make_phantom(spec)
    formats.save_mask(args.out_mask, mask)
    formats.save_field(args.out_field, field)
    loa = ",".join(formats.fmt_float(float(c)) for c in gt.line_of_action)
    Path(args.out_truth).write_text(
        "\n".join(
            [
                f"shape={spec.shape}",
                f"pennation_deg={formats.fmt_float(spec.pennation_deg)}",
                f"jitter_deg={formats.fmt_float(spec.jitter_deg)}",
                f"seed={spec.seed}",
                f"fiber_length_mm={formats.fmt_float(gt.fiber_length_mm)}",
                f"pa_deg={formats.fmt_float(gt.pennation_deg)}",
                f"line_of_action={loa}",
                f"volume_mm3={formats.fmt_float(gt.volume_mm3)}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"phantom: wrote {args.out_mask}, {args.out_field}, {args.out_truth}")
    return 0


def cmd_track(args) -> int:
    cfg = _run_config(args)
    mask = formats.load_mask(args.mask)
    field = formats.load_field(args.field)
    seeds = _make_seeds(args.strategy, mask, cfg)
    if len(seeds) > cfg.n_candidates:
        seeds = SeedSet(seeds.points[_even_picks(len(seeds), cfg.n_candidates)])
    out = Path(args.out)
    if out.exists() and not out.is_file():
        raise DataError(f"{out}: --out must be a regular file")
    part = _scratch_beside(out)
    try:
        batches = reconstruct_batches(field, mask, seeds, cfg.tracking)
        count = formats.save_streamlines(part, batches)
        os.replace(part, out)
    finally:
        part.unlink(missing_ok=True)
    print(f"track: {len(seeds)} seeds -> {count} streamlines -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    cfg = _run_config(args)
    mask = formats.load_mask(args.mask)

    if args.method == "fss":
        if not args.candidates:
            raise DataError("--candidates is required for method fss")
        with formats.StreamlineFile(args.candidates) as source:
            trace = fss_select(_framed(source.sets(), mask), cfg.fss)
            count = source.copy(args.out, trace.selected_ids)
        if args.trace:
            formats.write_csv(
                args.trace,
                ["step", "id", "selection_distance_mm"],
                [
                    [i, int(sid), float(d)]
                    for i, (sid, d) in enumerate(zip(trace.selected_ids, trace.selection_distance))
                ],
            )
    else:
        if not args.field:
            raise DataError(f"--field is required for method {args.method}")
        field = formats.load_field(args.field)
        seeds = _make_seeds(args.method, mask, cfg)
        # The reconstruction streams into a file beside --out (module docstring).
        part = _scratch_beside(args.out)
        try:
            formats.save_streamlines(part, reconstruct_batches(field, mask, seeds, cfg.tracking))
            with formats.StreamlineFile(part) as source:
                count = source.copy(args.out, _subsample_rows(len(source), cfg.fss.k))
        finally:
            part.unlink(missing_ok=True)

    print(f"filter[{args.method}]: {count} streamlines -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    cfg = _run_config(args)
    mask = formats.load_mask(args.mask)
    with formats.StreamlineFile(args.streamlines) as source:
        tracts = _framed(source.sets(), mask)
        dmap, tm = metrics_mod.density(tracts, mask, sdcv_support=cfg.sdcv_support)
    formats.write_csv(
        args.out_csv,
        ["sc", "sd_mean", "sdcv", "sdcv_defined"],
        [[tm.sc, tm.sd_mean, tm.sdcv, int(tm.sdcv_defined)]],
    )
    if args.out_density:
        formats.save_density(args.out_density, dmap, normalized=args.normalized)
    print(f"metrics: sc={tm.sc:.4f} sd_mean={tm.sd_mean:.4f} sdcv={tm.sdcv:.4f}")
    return 0


def cmd_arch(args) -> int:
    name = args.name or Path(args.streamlines).stem
    if any(c in name for c in ",\n\r"):
        raise DataError(f"name {name!r} must not contain a comma or a line break")
    cfg = _run_config(args)
    mask = formats.load_mask(args.mask)
    # Two passes over the one open file (architecture module docstring).
    with formats.StreamlineFile(args.streamlines) as source:
        first, last, lengths = arch_mod.tract_ends(_framed(source.sets(), mask))
        loa = arch_mod.line_of_action(first, last, r2_threshold=cfg.r2_threshold)
        arch = arch_mod.summarize(mask, first, last, lengths, source.sets(), loa)
    formats.write_csv(
        args.out,
        ARCH_HEADER,
        [[
            name, arch.mv, arch.fl_median, arch.ml, arch.fl_ml_ratio, arch.pa_median,
            arch.pcsa, float(loa.direction[0]), float(loa.direction[1]),
            float(loa.direction[2]), loa.r2, loa.source, arch.arch_type,
        ]],
    )
    print(
        f"arch[{name}]: fl={arch.fl_median:.2f}mm pa={arch.pa_median:.2f}deg "
        f"pcsa={arch.pcsa:.2f}mm2 type={arch.arch_type}"
    )
    return 0


def _first_row(path) -> dict[str, str]:
    """The first data row of a CSV file, by column name."""
    header, rows = formats.read_csv(path)
    if not rows:
        raise DataError(f"{path}: no data row")
    return dict(zip(header, rows[0]))


def _column(rec: dict[str, str], key: str, path, kind=float):
    """rec[key] converted by kind; a missing or unparseable value is a DataError."""
    if key not in rec:
        raise DataError(f"{path}: missing column {key!r}")
    try:
        return kind(rec[key])
    except ValueError:
        raise DataError(f"{path}: bad {key} value {rec[key]!r}") from None


def _load_run(path: Path) -> dict[str, float]:
    m_path, a_path = path / "metrics.csv", path / "arch.csv"
    m, a = _first_row(m_path), _first_row(a_path)
    return {
        "sc": _column(m, "sc", m_path),
        "sdcv": _column(m, "sdcv", m_path),
        "fl_median": _column(a, "fl_median_mm", a_path),
        "ml": _column(a, "ml_mm", a_path),
        "fl_ml_ratio": _column(a, "fl_ml_ratio", a_path),
        "pa_median": _column(a, "pa_median_deg", a_path),
        "pcsa": _column(a, "pcsa_mm2", a_path),
    }


def cmd_compare(args) -> int:
    runs: dict[str, dict[int, dict[str, float]]] = {}
    masks: dict[int, bytes] = {}
    for spec in args.runs:
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise DataError(f"run spec must be label:instance:dir, got {spec!r}")
        label, path = parts[0], Path(parts[2])
        try:
            instance = int(parts[1])
        except ValueError:
            raise DataError(f"run spec {spec!r}: instance must be an integer") from None
        runs.setdefault(label, {})[instance] = _load_run(path)
        mask_path = path / "mask.mskv"
        if mask_path.exists():
            with open(mask_path, "rb") as fh:
                header = fh.read(44)  # magic, version, dims, voxel size, origin
            if instance in masks and masks[instance] != header:
                raise FrameMismatchError(f"instance {instance}: runs use different phantom frames")
            masks[instance] = header

    if len(runs) < 2:
        raise DataError("compare needs runs from at least 2 methods")

    header = ["row", "method", "instance", *METRIC_COLUMNS]
    rows: list[list] = []
    for label in sorted(runs):
        for instance in sorted(runs[label]):
            vals = runs[label][instance]
            rows.append(["run", label, instance, *[vals[c] for c in METRIC_COLUMNS]])
    for label in sorted(runs):
        per = runs[label]
        rows.append([
            "mean", label, "",
            *[float(np.mean([per[i][c] for i in sorted(per)])) for c in METRIC_COLUMNS],
        ])

    labels = sorted(runs)
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            shared = sorted(set(runs[la]) & set(runs[lb]))
            if not shared:
                continue
            pair = f"{la}-vs-{lb}"
            a = {c: np.array([runs[la][i][c] for i in shared]) for c in METRIC_COLUMNS}
            b = {c: np.array([runs[lb][i][c] for i in shared]) for c in METRIC_COLUMNS}
            rows.append(["pct_diff", pair, "", *[stats.percent_diff(a[c], b[c]) for c in METRIC_COLUMNS]])
            if len(shared) >= 2:
                tres = {c: stats.t_paired(a[c], b[c]) for c in METRIC_COLUMNS}
                ba = {c: stats.bland_altman(a[c], b[c]) for c in METRIC_COLUMNS}
                rows.append(["t_stat", pair, "", *[tres[c].t for c in METRIC_COLUMNS]])
                rows.append([
                    "p_value", pair, "",
                    *[tres[c].p if tres[c].p is not None else float("nan") for c in METRIC_COLUMNS],
                ])
                rows.append(["ba_mean_diff", pair, "", *[ba[c].mean_diff for c in METRIC_COLUMNS]])
                rows.append(["ba_loa_low", pair, "", *[ba[c].loa_low for c in METRIC_COLUMNS]])
                rows.append(["ba_loa_high", pair, "", *[ba[c].loa_high for c in METRIC_COLUMNS]])

    formats.write_csv(args.out, header, rows)
    print(f"compare: {sum(len(v) for v in runs.values())} runs -> {args.out}")
    return 0


def _arch_record(rec: dict[str, str], path) -> arch_mod.MuscleArchitecture:
    """The architecture record of one row of an `arch` CSV file."""
    def col(key, kind=float):
        return _column(rec, key, path, kind)

    return arch_mod.MuscleArchitecture(
        mv=col("mv_mm3"),
        fl_median=col("fl_median_mm"),
        ml=col("ml_mm"),
        fl_ml_ratio=col("fl_ml_ratio"),
        pa_median=col("pa_median_deg"),
        pcsa=col("pcsa_mm2"),
        loa=arch_mod.LineOfAction(
            np.array([col("loa_x"), col("loa_y"), col("loa_z")]),
            col("r2"),
            col("loa_source", str),
        ),
        arch_type=col("arch_type", str),
    )


def cmd_fractions(args) -> int:
    group_of = {name: group for _, name, group in
                formats.key_value_lines(args.groups, "muscle=group")}

    records = []
    for csv_path in args.arch_csvs:
        header, rows = formats.read_csv(csv_path)
        for row in rows:
            rec = dict(zip(header, row))
            name = _column(rec, "name", csv_path, str)
            if name not in group_of:
                raise DataError(f"{csv_path}: muscle {name!r} missing from the group table")
            records.append((group_of[name], name, _arch_record(rec, csv_path)))

    fr = arch_mod.group_fractions([(g, a) for g, _, a in records])
    rows = [["volume_fraction", g, "", v] for g, v in sorted(fr.volume_fraction.items())]
    rows += [
        ["pcsa_fraction", g, name, frac]
        for (g, name, _), frac in zip(records, fr.pcsa_fraction)
    ]
    formats.write_csv(args.out, ["kind", "group", "name", "value"], rows)
    print(f"fractions: {len(records)} muscles -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="muscletract", description=__doc__)
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="warning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Run-parameter flags store under their run-config key and are absent from
    # the namespace unless given, so only given flags override the config.
    def run_flag(p, *names, **kw):
        p.add_argument(*names, default=argparse.SUPPRESS, **kw)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config")
    tracking = argparse.ArgumentParser(add_help=False, parents=[config])
    run_flag(tracking, "--spacing", dest="spacing_mm", type=float)
    run_flag(tracking, "--n-slices", dest="n_slices", type=int)
    run_flag(tracking, "--step", dest="step_mm", type=float)
    run_flag(tracking, "--max-angle", dest="max_angle_deg", type=float)
    run_flag(tracking, "--fa-min", dest="fa_min", type=float)
    run_flag(tracking, "--min-length", dest="min_length_mm", type=float)
    run_flag(tracking, "--max-extrap", dest="max_extrap_fraction", type=float)

    # Phantom flags likewise store under their PhantomSpec field, which holds
    # the default.
    p = sub.add_parser("phantom", help="generate a synthetic phantom")
    run_flag(p, "--shape", dest="shape", choices=tuple(_SHAPE_ALIASES))
    run_flag(p, "--pennation", dest="pennation_deg", type=float)
    run_flag(p, "--dims", dest="dims_mm", type=_parse_dims)
    run_flag(p, "--voxel", dest="voxel_mm", type=float)
    run_flag(p, "--arc-radius", dest="arc_radius_mm", type=float)
    run_flag(p, "--arc-sweep", dest="arc_sweep_deg", type=float)
    run_flag(p, "--arc-thickness", dest="arc_thickness_mm", type=float)
    run_flag(p, "--jitter", dest="jitter_deg", type=float)
    run_flag(p, "--seed", dest="seed", type=int)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("track", help="track candidate streamlines", parents=[tracking])
    p.add_argument("--field", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--strategy", choices=["2ds", "3ds"], default="3ds")
    run_flag(p, "--target-candidates", dest="n_candidates", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser(
        "filter", help="sample k streamlines (fss filters, 2ds/3ds re-track)", parents=[tracking]
    )
    p.add_argument("--method", choices=["fss", "2ds", "3ds"], required=True)
    run_flag(p, "-k", dest="k", type=int)
    p.add_argument("--candidates")
    p.add_argument("--mask", required=True)
    p.add_argument("--field")
    run_flag(p, "--m", dest="m", type=int)
    run_flag(p, "--init-rule", dest="init_rule", choices=["longest", "index"])
    p.add_argument("--trace")
    p.add_argument("--out", required=True,
                   help="STRL output; for 2ds/3ds its directory must take a scratch file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("metrics", help="coverage / density metrics", parents=[config])
    p.add_argument("--streamlines", required=True)
    p.add_argument("--mask", required=True)
    run_flag(p, "--sdcv-support", dest="sdcv_support", choices=["all", "nonzero"])
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-density")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("arch", help="muscle architecture record", parents=[config])
    p.add_argument("--streamlines", required=True)
    p.add_argument("--mask", required=True)
    run_flag(p, "--r2-threshold", dest="r2_threshold", type=float)
    p.add_argument("--name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_arch)

    p = sub.add_parser("compare", help="compare completed runs (label:instance:dir)")
    p.add_argument("runs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fractions", help="volume / PCSA fractions by functional group")
    p.add_argument("arch_csvs", nargs="+")
    p.add_argument("--groups", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fractions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(), format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except MuscleTractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
