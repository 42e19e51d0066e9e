"""Farthest streamline sampling and muscle-architecture analytics.

Library layout: the packed streamline container, arc lengths and the MDF
distance (streamline), seeding baselines and the farthest-first filter
(sampling), synthetic phantoms (phantom), the deterministic tracker with
fitting and extrapolation (tracking), coverage/density metrics (metrics),
per-muscle architecture (architecture), comparison statistics (stats), and
file formats plus the CLI (formats, cli).

Streamlines travel between the stages as one StreamlineSet: a packed point
buffer with offsets, whose iteration yields each streamline's (c, 3) points.
"""

from .architecture import (
    LineOfAction,
    MuscleArchitecture,
    group_fractions,
    line_of_action,
    muscle_length,
    muscle_volume,
    summarize,
)
from .grid import OrientationField, VoxelMask
from .metrics import DensityMap, TractMetrics, coverage, density
from .phantom import GroundTruth, PhantomSpec, make_phantom
from .sampling import FSSConfig, FSSTrace, SeedSet, fss_filter, fss_select, seeds_2d, seeds_3d
from .stats import (
    BlandAltman,
    TTestResult,
    bland_altman,
    percent_diff,
    skewness,
    t_one_sample,
    t_paired,
)
from .streamline import StreamlineSet, arc_lengths
from .tracking import TrackingConfig, reconstruct, reconstruct_batches, track

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
    "PhantomSpec",
    "SeedSet",
    "StreamlineSet",
    "TTestResult",
    "TrackingConfig",
    "TractMetrics",
    "VoxelMask",
    "arc_lengths",
    "bland_altman",
    "coverage",
    "density",
    "fss_filter",
    "fss_select",
    "group_fractions",
    "line_of_action",
    "make_phantom",
    "muscle_length",
    "muscle_volume",
    "percent_diff",
    "reconstruct",
    "reconstruct_batches",
    "seeds_2d",
    "seeds_3d",
    "skewness",
    "summarize",
    "t_one_sample",
    "t_paired",
    "track",
]
