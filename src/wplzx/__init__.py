"""Exact phase-grid arithmetic, weighted spider diagram rewriting with a
matrix-semantics oracle, and winding-aware surface-code decoding."""

from .diagram import Diagram, Node, Wire, build, monochrome_regions
from .phase import (
    GRID_ORDER_CAP,
    RationalAngle,
    SpiderLabel,
    TotalAngle,
    add_on_lcm,
    lcm_order,
    snap_to_grid,
    total_angle,
)
from .rewrite import (
    CanonicalLabel,
    RewriteTrace,
    canonical_label,
    color_change,
    fuse_pair,
    identity_removal,
    wzcc_normalize,
)
from .semantics import (
    equal_up_to_global_phase,
    equal_up_to_global_scalar,
    evaluate,
    spider_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalLabel",
    "Diagram",
    "GRID_ORDER_CAP",
    "Node",
    "RationalAngle",
    "RewriteTrace",
    "SpiderLabel",
    "TotalAngle",
    "Wire",
    "add_on_lcm",
    "build",
    "canonical_label",
    "color_change",
    "equal_up_to_global_phase",
    "equal_up_to_global_scalar",
    "evaluate",
    "fuse_pair",
    "identity_removal",
    "lcm_order",
    "monochrome_regions",
    "snap_to_grid",
    "spider_matrix",
    "total_angle",
    "wzcc_normalize",
]
