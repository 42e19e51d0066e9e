"""Farthest streamline sampling and muscle-architecture analytics.

Library layout: the packed streamline container, arc lengths and the MDF
distance (streamline), seeding baselines and the farthest-first filter
(sampling), synthetic phantoms (phantom), the deterministic tracker with
fitting and extrapolation (tracking), coverage/density metrics (metrics),
per-muscle architecture (architecture), comparison statistics (stats), and
file formats plus the CLI (formats, cli).

Streamlines travel between the stages as StreamlineSets: a packed point
buffer with offsets, whose iteration yields each streamline's (c, 3) points.
The tracker has one entry point, reconstruct_batches, which yields float64
sets one block at a time; formats.save_streamlines writes them as float32
words, and formats.StreamlineFile.sets reads them back as float64 sets.
fss_select, density, coverage, tract_ends, muscle_length and summarize take
such a stream of sets as well as one set, so no command holds its whole
input; formats.load_streamlines reads a whole set. fss_select returns the
positions of its picks, which StreamlineSet.take copies into a set of their
own.
"""

from .architecture import (
    LineOfAction,
    MuscleArchitecture,
    group_fractions,
    line_of_action,
    muscle_length,
    muscle_volume,
    summarize,
    tract_ends,
)
from .grid import OrientationField, VoxelMask
from .metrics import DensityMap, TractMetrics, coverage, density
from .phantom import GroundTruth, PhantomSpec, make_phantom
from .sampling import FSSConfig, FSSTrace, SeedSet, fss_select, seeds_2d, seeds_3d
from .stats import (
    BlandAltman,
    TTestResult,
    bland_altman,
    percent_diff,
    t_paired,
)
from .streamline import StreamlineSet, arc_lengths
from .tracking import TrackingConfig, reconstruct_batches

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
    "fss_select",
    "group_fractions",
    "line_of_action",
    "make_phantom",
    "muscle_length",
    "muscle_volume",
    "percent_diff",
    "reconstruct_batches",
    "seeds_2d",
    "seeds_3d",
    "summarize",
    "t_paired",
    "tract_ends",
]
