"""Winding-aware decoding and decoder-risk metrics.

The decoder runs minimum-weight perfect matching under lambda-penalized edge
weights and reports two risk diagnostics: DRG_toy, the mean relative weight
inflation over matched pairs, and DRG_pm, its Boltzmann-weighted counterpart
over all edges with p(e) proportional to exp(-beta d_e).  Both vanish at
lambda = 0 and are non-decreasing in lambda.

DRG_toy always uses raw (unnormalized) penalties, matching its defining
formula w_i = d_i + lambda |delta_k_i|; DRG_pm uses whichever mode the decode
ran with, recorded in the report.  Zero-distance edges (virtual-virtual
bookkeeping pairs) are excluded from both metrics since their relative
inflation is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NegativeLambda, ZeroDistance
from .graph import NORMALIZED, RAW, DefectGraph, edge_weight, edge_weights, winding_difference
from .matching import Matching, min_weight_perfect_matching


@dataclass(frozen=True)
class RiskReport:
    lam: float
    drg_toy: float
    drg_pm: float
    total_cost: float
    matching_size: int
    mode: str
    beta: float


def drg_toy(pairs, lam: float) -> float:
    """Mean relative inflation (1/N) sum (w_lam - w_0)/w_0 over (d, delta_k)
    pairs, with w_lam = d + lam |delta_k| (raw convention)."""
    if lam < 0.0:
        raise NegativeLambda(f"lambda must be >= 0, got {lam}")
    pairs = list(pairs)
    if not pairs:
        return 0.0
    acc = 0.0
    for d, dk in pairs:
        if not d > 0.0:
            raise ZeroDistance(f"DRG_toy needs positive distances, got {d}")
        acc += lam * abs(float(dk)) / d
    return acc / len(pairs)


def drg_pm(g: DefectGraph, lam: float, beta: float, mode: str = RAW) -> float:
    """Boltzmann-weighted risk sum_e p(e) w_lam(e)/w_0(e) - 1 over all edges
    of g with d > 0, p(e) proportional to exp(-beta d_e)."""
    if lam < 0.0:
        raise NegativeLambda(f"lambda must be >= 0, got {lam}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    entries = []
    for e in g.edges:
        u, v = g.vertex(e.u), g.vertex(e.v)
        if u.is_virtual_boundary and v.is_virtual_boundary:
            continue
        if not e.d > 0.0:
            raise ZeroDistance(f"DRG_pm needs positive distances, got edge {e}")
        entries.append((e.d, edge_weight(g, e, lam, mode) / e.d))
    if not entries:
        return 0.0
    zs = [math.exp(-beta * d) for d, _ in entries]
    z = sum(zs)
    return sum(p * ratio for p, (_, ratio) in zip(zs, entries)) / z - 1.0


def masd_decode(
    g: DefectGraph,
    lam: float,
    mode: str = NORMALIZED,
    beta: float = 1.0,
) -> tuple[Matching, RiskReport]:
    """Decode a defect graph under lambda-penalized weights.

    At lambda = 0 this reduces to plain minimum-weight matching on the
    distances.  The risk report covers the matched pairs (DRG_toy) and the
    whole edge set (DRG_pm).
    """
    weights = edge_weights(g, lam, mode)
    matching = min_weight_perfect_matching(g, weights)

    distances = {frozenset((e.u, e.v)): e.d for e in g.edges}
    toy_pairs = []
    for u, v in matching.pairs:
        vu, vv = g.vertex(u), g.vertex(v)
        if vu.is_virtual_boundary and vv.is_virtual_boundary:
            continue
        d = distances.get(frozenset((u, v)))
        if not d:
            continue
        toy_pairs.append((d, winding_difference(vu, vv)))
    report = RiskReport(
        lam=lam,
        drg_toy=drg_toy(toy_pairs, lam),
        drg_pm=drg_pm(g, lam, beta, mode),
        total_cost=matching.total_cost,
        matching_size=matching.size,
        mode=mode,
        beta=beta,
    )
    return matching, report
