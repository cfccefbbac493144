"""Minimum-weight perfect matching on defect graphs.

Every matching is exact: a subset DP over the F(n+2) masks reachable from
the empty one (Fibonacci, at most n relaxations each).  The DP takes at most
:data:`DP_VERTEX_CAP` = 24 vertices, the Z-check count of the largest
supported surface code, so every graph ``sweep`` samples fits; a larger
graph raises MatchingOverflow instead of being matched approximately.  When
virtual boundary vertices follow the one-virtual-per-defect pattern, each
virtual is folded into its real defect's retirement cost, so only the real
defects enter the DP mask and the unused virtuals pair up among themselves
afterwards.  Any other virtual layout puts every vertex into the same DP with
an infinite retirement cost.

Which layout applies, the DP vertex order, each real defect's retirement
candidates and the edge keys of the DP matrix depend only on the graph, so
they are computed once per graph and cached on it; each call only looks up
that call's weights, as Python lists for the pure-Python kernel in ``_dp``.
A graph with no vertices skips the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import MatchingOverflow, OddVertexCount
from . import _dp
from .graph import DefectGraph, VertexId

DP_VERTEX_CAP = 24

# The kernel module under the name profilers and tests patch ``solve_dense`` on.
_kernel = _dp


def kernel_name() -> str:
    """The DP kernel in use: always 'pure', the pure-Python subset DP in
    ``_dp``."""
    return "pure"


def _weight_fn(weights: Mapping) -> Callable[[VertexId, VertexId], float]:
    """Edge-cost lookup over a frozenset({u, v})-keyed table; missing edges
    cost +inf."""

    def lookup(u: VertexId, v: VertexId) -> float:
        return float(weights.get(frozenset((u, v)), math.inf))

    return lookup


@dataclass(frozen=True)
class Matching:
    """A perfect matching: vertex-id pairs, its cost, and an exactness flag
    (always true: every matching is a minimum-weight one)."""

    pairs: tuple[tuple[VertexId, VertexId], ...]
    total_cost: float
    exact: bool

    @property
    def size(self) -> int:
        return len(self.pairs)


def _own_virtuals(g: DefectGraph, reals: list, virts: list) -> dict | None:
    """Map real id -> [(virtual id, edge key), ...], its retirement
    candidates in order, when virtuals follow the one-per-defect pattern
    (each virtual adjacent to at most one real); None otherwise."""
    if len(virts) < len(reals):
        return None
    real_set = set(reals)
    attached: dict[VertexId, list] = {v: [] for v in virts}
    for e in g.edges:
        if e.u in real_set and e.v in attached:
            attached[e.v].append(e.u)
        elif e.v in real_set and e.u in attached:
            attached[e.u].append(e.v)
    if any(len(r) > 1 for r in attached.values()):
        return None
    out: dict[VertexId, list] = {}
    for virt, rs in attached.items():
        for r in rs:
            out.setdefault(r, []).append((virt, frozenset((r, virt))))
    return out


def _layout(g: DefectGraph) -> tuple:
    """(DP vertex ids, virtual ids left to pair among themselves, retirement
    candidates per real id, (i, j) cells and edge keys of the DP matrix's
    upper triangle); computed once per graph and cached on it."""
    layout = g._cache.get("layout")
    if layout is None:
        ids = [v.id for v in g.real_vertices]
        virts = [v.id for v in g.virtual_vertices]
        retire = _own_virtuals(g, ids, virts) if virts else {}
        if retire is None:
            # Arbitrary virtual layout: every vertex enters the DP, none retires.
            ids, virts, retire = [v.id for v in g.vertices], [], {}
        n = len(ids)
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keys = [frozenset((ids[i], ids[j])) for i, j in cells]
        layout = g._cache["layout"] = (ids, virts, retire, cells, keys)
    return layout


def min_weight_perfect_matching(g: DefectGraph, weights: Mapping) -> Matching:
    """Match all vertices of g at minimum total weight.

    ``weights`` maps frozenset({u, v}) to the edge cost, as built by
    ``edge_weights``.  Raises OddVertexCount when no perfect matching can
    exist and MatchingOverflow past DP_VERTEX_CAP DP vertices.
    """
    if len(g.vertices) % 2 != 0:
        raise OddVertexCount(f"{len(g.vertices)} vertices cannot be perfectly matched")
    if not g.vertices:
        return Matching((), 0.0, exact=True)
    ids, virts, retire, cells, keys = _layout(g)
    n = len(ids)
    if n > DP_VERTEX_CAP:
        raise MatchingOverflow(f"{n} DP vertices exceed cap {DP_VERTEX_CAP}")
    own: dict[VertexId, tuple] = {}  # real id -> (virtual id, retirement cost)
    for r, candidates in retire.items():
        for virt, key in candidates:
            cost = float(weights.get(key, math.inf))
            if r not in own or cost < own[r][1]:
                own[r] = (virt, cost)

    w = [[math.inf] * n for _ in range(n)]
    for (i, j), key in zip(cells, keys):
        w[i][j] = w[j][i] = weights.get(key, math.inf)
    boundary = [own[r][1] if r in own else math.inf for r in ids]
    cost, choice = _dp.solve_dense(w, boundary)
    if not math.isfinite(cost):
        raise OddVertexCount("graph admits no finite-cost perfect matching")
    moves = _dp.reconstruct(choice, n)
    pairs: list[tuple[VertexId, VertexId]] = []
    used_virts = set()
    for i, j in moves:
        if j == -1:
            virt = own[ids[i]][0]
            pairs.append((ids[i], virt))
            used_virts.add(virt)
        else:
            pairs.append((ids[i], ids[j]))
    leftover = sorted((v for v in virts if v not in used_virts), key=repr)
    for i in range(0, len(leftover), 2):
        pairs.append((leftover[i], leftover[i + 1]))
    return Matching(tuple(pairs), cost, exact=True)
