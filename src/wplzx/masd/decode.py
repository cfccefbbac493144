"""Winding-aware decoding and decoder-risk metrics.

The decoder runs minimum-weight perfect matching under lambda-penalized edge
weights and reports two risk diagnostics: DRG_toy, the mean relative weight
inflation over matched pairs, and DRG_pm, its Boltzmann-weighted counterpart
over all edges with p(e) proportional to exp(-beta d_e).  Both vanish at
lambda = 0 and are non-decreasing in lambda.

DRG_toy always uses raw (unnormalized) penalties, matching its defining
formula w_i = d_i + lambda |delta_k_i|; DRG_pm uses whichever mode the decode
ran with.  Zero-distance edges (virtual-virtual bookkeeping pairs) are
excluded from both metrics since their relative inflation is undefined.

Both metrics are linear in lambda.  DRG_pm equals lambda * S with
S = sum_e p(e) slope_e / d_e, and S is computed once per instance, mode and
beta and cached on its array form (``graph.DefectArrays``).  DRG_toy reads
each matched pair's (d, raw delta_k) from the form's row for the edge the
matching paid for it (``Matching.edges``).  A lambda grid on one instance
therefore pays for the exact winding arithmetic once.  ``masd_decode``
decodes the array form of whatever it is given, so a file graph, a
sampled graph and a sweep trial take the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidBeta, ZeroDistance
from .graph import (
    NORMALIZED,
    RAW,
    DefectArrays,
    DefectGraph,
    check_lambda,
    defect_arrays,
    edge_weights,
    slope_column,
)
from .matching import Matching, min_weight_perfect_matching


@dataclass(frozen=True)
class RiskReport:
    drg_toy: float
    drg_pm: float
    total_cost: float


def drg_toy(pairs, lam: float) -> float:
    """Mean relative inflation (1/N) sum (w_lam - w_0)/w_0 over (d, delta_k)
    pairs, with w_lam = d + lam |delta_k| (raw convention)."""
    check_lambda(lam)
    pairs = list(pairs)
    if not pairs:
        return 0.0
    acc = 0.0
    for d, dk in pairs:
        if not d > 0.0:
            raise ZeroDistance(f"DRG_toy needs positive distances, got {d}")
        acc += lam * abs(float(dk)) / d
    return acc / len(pairs)


def drg_pm(g: DefectGraph | DefectArrays, lam: float, beta: float, mode: str = RAW) -> float:
    """Boltzmann-weighted risk sum_e p(e) w_lam(e)/w_0(e) - 1 over all edges
    of g (a defect graph or its array form) with d > 0, p(e) proportional
    to exp(-beta d_e).  Since w_lam(e)/w_0(e) = 1 + lam * slope_e / d_e,
    this is lam times a per-instance slope, cached per (mode, beta)."""
    check_lambda(lam)
    if not 0.0 < beta < math.inf:
        raise InvalidBeta(f"beta must be finite and > 0, got {beta}")
    arrays = defect_arrays(g)
    # The weights exp(-beta (d_e - d_min)) give the same p(e) once
    # normalized, and the normalizer is at least 1 however large beta is.
    key = ("drg_pm", mode, beta)
    slope = arrays._cache.get(key)
    if slope is None:
        col = slope_column(mode)
        skip = arrays.virtual_rows
        ds, ratios = [], []
        for k, row in enumerate(arrays.edges):
            if k in skip:
                continue
            d = row[0]
            if not d > 0.0:
                raise ZeroDistance(f"DRG_pm needs positive distances, got edge {g.edges[k]}")
            ds.append(d)
            ratios.append(row[col] / d)
        slope = 0.0
        if ds:
            d_min = min(ds)
            ps = [math.exp(-beta * (d - d_min)) for d in ds]
            slope = sum(p * r for p, r in zip(ps, ratios)) / sum(ps)
        arrays._cache[key] = slope
    return lam * slope


def masd_decode(
    g: DefectGraph | DefectArrays,
    lam: float,
    mode: str = NORMALIZED,
    beta: float = 1.0,
) -> tuple[Matching, RiskReport]:
    """Decode a defect graph, or its array form, under lambda-penalized
    weights.

    At lambda = 0 this reduces to plain minimum-weight matching on the
    distances.  The risk report covers the matched pairs (DRG_toy) and the
    whole edge set (DRG_pm).
    """
    arrays = defect_arrays(g)
    weights = edge_weights(arrays, lam, mode)
    matching = min_weight_perfect_matching(arrays, weights)

    rows, skip = arrays.edges, arrays.virtual_rows
    toy_pairs = []
    for k in matching.edges:
        if k is not None and rows[k][0] and k not in skip:
            toy_pairs.append(rows[k][:2])
    report = RiskReport(
        drg_toy=drg_toy(toy_pairs, lam),
        drg_pm=drg_pm(g, lam, beta, mode),
        total_cost=matching.total_cost,
    )
    return matching, report
