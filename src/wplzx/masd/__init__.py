"""Winding-aware surface-code decoding."""

from .decode import drg_pm, drg_toy, masd_decode
from .graph import (
    NORMALIZED,
    RAW,
    DefectEdge,
    DefectGraph,
    DefectVertex,
    edge_weight,
    edge_weights,
    winding_difference,
)
from .matching import DP_VERTEX_CAP, kernel_name, min_weight_perfect_matching
from .surface import (
    WindingModel,
    build_code,
    lambda_sweep,
    logical_failure,
    sample_surface_code,
)

__all__ = [
    "DP_VERTEX_CAP",
    "NORMALIZED",
    "RAW",
    "DefectEdge",
    "DefectGraph",
    "DefectVertex",
    "WindingModel",
    "build_code",
    "drg_pm",
    "drg_toy",
    "edge_weight",
    "edge_weights",
    "kernel_name",
    "lambda_sweep",
    "logical_failure",
    "masd_decode",
    "min_weight_perfect_matching",
    "sample_surface_code",
    "winding_difference",
]
