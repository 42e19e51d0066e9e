"""Farthest streamline sampling and muscle-architecture analytics.

Library layout: streamline geometry and the MDF distance (streamline), seeding
baselines and the farthest-first filter (sampling), synthetic phantoms
(phantom), the deterministic tracker with fitting and extrapolation
(tracking), coverage/density metrics (metrics), per-muscle architecture
(architecture), comparison statistics (stats), and file formats plus the CLI
(formats, cli).
"""

from .architecture import (
    LineOfAction,
    MuscleArchitecture,
    group_fractions,
    line_of_action,
    muscle_length,
    muscle_volume,
    pennation_angle,
    summarize,
)
from .grid import OrientationField, VoxelMask
from .metrics import DensityMap, TractMetrics, coverage, density, voxelize
from .phantom import GroundTruth, PhantomSpec, make_phantom
from .sampling import FSSConfig, FSSTrace, SeedSet, fss_filter, seeds_2d, seeds_3d
from .stats import (
    BlandAltman,
    PairedSample,
    TTestResult,
    bland_altman,
    percent_diff,
    skewness,
    t_one_sample,
    t_paired,
)
from .streamline import Streamline, StreamlineSet, arc_length
from .tracking import TrackingConfig, extrapolate_to_surface, fit_poly3, reconstruct, track

__version__ = "0.1.0"

__all__ = [
    "BlandAltman",
    "DensityMap",
    "FSSConfig",
    "FSSTrace",
    "GroundTruth",
    "LineOfAction",
    "MuscleArchitecture",
    "OrientationField",
    "PairedSample",
    "PhantomSpec",
    "SeedSet",
    "Streamline",
    "StreamlineSet",
    "TTestResult",
    "TrackingConfig",
    "TractMetrics",
    "VoxelMask",
    "arc_length",
    "bland_altman",
    "coverage",
    "density",
    "extrapolate_to_surface",
    "fit_poly3",
    "fss_filter",
    "group_fractions",
    "line_of_action",
    "make_phantom",
    "muscle_length",
    "muscle_volume",
    "pennation_angle",
    "percent_diff",
    "reconstruct",
    "seeds_2d",
    "seeds_3d",
    "skewness",
    "summarize",
    "t_one_sample",
    "t_paired",
    "track",
    "voxelize",
]
