"""Syndrome defect graphs with grid-order and winding annotations.

Each vertex carries (a_v, k_v): the local grid order and an integer winding
index.  The winding discrepancy between two vertices is measured on their
common refinement grid L = lcm(a_u, a_v),

    delta_k(u, v) = L * |k_u/a_u - k_v/a_v| = |k_u * (L/a_u) - k_v * (L/a_v)|,

an integer, computed exactly in integer arithmetic on the lcm grid.  Virtual
boundary vertices pair up unmatched defects; they carry k = 0 and contribute
zero winding difference by construction.

An edge's MASD weight d + lam * slope is linear in lambda, with slope = delta_k
(raw) or delta_k / L (normalized); both are the correctly rounded floats of
the exact values.  The decoder's one weight format is a list aligned with
``g.edges``: ``edge_terms`` computes the lambda-independent rows
(d, slope, virtual-virtual?) for both modes in one pass per graph and caches
them on the graph, and ``edge_weights`` turns them into one float per edge,
d + lam * slope, so a lambda grid does the integer winding arithmetic once
per instance, and within an instance once per distinct pair of end labels
(a two-sector graph has two labels).  The decoder caches its other
lambda-independent terms (DRG_pm slope, DP layout) on the same per-graph
dict, and the matcher keeps its last solve there: since slope >= 0, a
larger lambda only raises weights, and a matching that paid only
unchanged weights is returned again without a new solve (see
``matching``).
Vertices and edges are frozen and hold no cache, so graphs may share them:
the surface-code sampler takes every edge and virtual vertex of its graphs
from per-code tables.

Serialized form (JSON)::

    {"vertices": [{"id", "pos": [r, c], "a", "k", "virtual": bool}, ...],
     "edges": [{"u", "v", "d"}, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

from ..errors import NegativeLambda, ParseError
from ..phase import check_grid_order, json_int, json_number, lcm_order

VertexId = Union[int, str]

RAW = "raw"
NORMALIZED = "normalized"
MODES = (RAW, NORMALIZED)


@dataclass(frozen=True)
class DefectVertex:
    id: VertexId
    position: tuple[float, float]
    a: int
    k: int
    is_virtual_boundary: bool = False

    def __post_init__(self) -> None:
        check_grid_order(self.a)
        if self.is_virtual_boundary and self.k != 0:
            raise ValueError("virtual boundary vertices must have k = 0")


@dataclass(frozen=True)
class DefectEdge:
    u: VertexId
    v: VertexId
    d: float

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("defect edges must join distinct vertices")
        if not self.d >= 0.0:
            raise ValueError(f"edge distance must be >= 0, got {self.d}")


@dataclass(frozen=True)
class DefectGraph:
    """Vertices plus distance-weighted edges.

    Virtual vertices follow the own-boundary pattern (one per real defect)
    in generated graphs, but arbitrary layouts can be loaded from files.
    """

    vertices: tuple[DefectVertex, ...]
    edges: tuple[DefectEdge, ...]
    _by_id: dict = field(default=None, compare=False, repr=False)
    # Lambda-independent decoding terms, filled on first use (see edge_terms).
    _cache: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Each error names its entry, found only on the error path: every
        # vertex before a duplicate had a new id, so len(by_id) is its
        # index, and an equal earlier edge would have raised already.
        by_id = {}
        for v in self.vertices:
            if v.id in by_id:
                raise ValueError(f"vertices[{len(by_id)}]: duplicate vertex id {v.id!r}")
            by_id[v.id] = v
        for e in self.edges:
            if e.u not in by_id or e.v not in by_id:
                where = f"edges[{self.edges.index(e)}]"
                raise ValueError(f"{where}: edge ({e.u!r}, {e.v!r}) references missing vertex")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_cache", {})

    def vertex(self, vid: VertexId) -> DefectVertex:
        return self._by_id[vid]

    @property
    def real_vertices(self) -> tuple[DefectVertex, ...]:
        return tuple(v for v in self.vertices if not v.is_virtual_boundary)

    @property
    def virtual_vertices(self) -> tuple[DefectVertex, ...]:
        return tuple(v for v in self.vertices if v.is_virtual_boundary)

    def to_json_obj(self) -> dict:
        return {
            "vertices": [
                {
                    "id": v.id,
                    "pos": list(v.position),
                    "a": v.a,
                    "k": v.k,
                    "virtual": v.is_virtual_boundary,
                }
                for v in self.vertices
            ],
            "edges": [{"u": e.u, "v": e.v, "d": e.d} for e in self.edges],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> DefectGraph:
        if not isinstance(obj, dict):
            raise ParseError("top-level defect graph value must be an object")
        for key in ("vertices", "edges"):
            if not isinstance(obj.get(key), list):
                raise ParseError(f"defect graph field '{key}' must be a list")
        parts = []
        for key, build in (("vertices", _vertex_from_json), ("edges", _edge_from_json)):
            built = []
            for i, entry in enumerate(obj[key]):
                if not isinstance(entry, dict):
                    raise ParseError(f"{key}[{i}] must be an object")
                try:
                    built.append(build(entry))
                except KeyError as exc:
                    raise ParseError(f"{key}[{i}]: missing field {exc}") from exc
                except (ParseError, ValueError) as exc:
                    raise ParseError(f"{key}[{i}]: {exc}") from exc
            parts.append(tuple(built))
        try:
            return cls(*parts)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def deserialize(cls, text: str) -> DefectGraph:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg} (line {exc.lineno})") from exc
        return cls.from_json_obj(obj)


def _vertex_from_json(entry: dict) -> DefectVertex:
    """One vertex entry of a graph file; ``from_json_obj`` names the entry
    in the error."""
    if type(entry["id"]) not in (int, str):
        raise ParseError(f"id must be an int or str, got {entry['id']!r}")
    virtual = entry.get("virtual", False)
    if not isinstance(virtual, bool):
        raise ParseError("virtual must be true or false")
    pos = entry["pos"]
    if not isinstance(pos, list) or len(pos) != 2:
        raise ParseError("pos must be a list of two numbers")
    position = (json_number(pos[0], "pos[0]"), json_number(pos[1], "pos[1]"))
    return DefectVertex(entry["id"], position, json_int(entry, "a"), json_int(entry, "k"), virtual)


def _edge_from_json(entry: dict) -> DefectEdge:
    """One edge entry of a graph file, as ``_vertex_from_json``.  An end
    names a vertex by the same type and value: 1.0 and true are not the
    vertex 1, though they compare equal to it."""
    for end in ("u", "v"):
        if type(entry[end]) not in (int, str):
            raise ParseError(f"{end} must be an int or str id, got {entry[end]!r}")
    return DefectEdge(entry["u"], entry["v"], json_number(entry["d"], "d"))


def _winding_gap(u: DefectVertex, v: DefectVertex) -> tuple[int, int]:
    """(delta_k, L) for two real vertices: the integer winding gap on their
    common grid L = lcm(a_u, a_v), which raises GridOverflow past the cap."""
    L = lcm_order(u.a, v.a)
    return abs(u.k * (L // u.a) - v.k * (L // v.a)), L


def winding_difference(u: DefectVertex, v: DefectVertex) -> int:
    """Exact winding discrepancy on the lcm(a_u, a_v) refinement grid."""
    if u.is_virtual_boundary or v.is_virtual_boundary:
        return 0
    return _winding_gap(u, v)[0]


def check_lambda(lam: float) -> None:
    """NegativeLambda unless the penalty strength lam is finite and >= 0."""
    if not 0.0 <= lam < math.inf:
        raise NegativeLambda(f"lambda must be finite and >= 0, got {lam}")


def edge_terms(g: DefectGraph, mode: str) -> tuple:
    """(d, slope, both ends virtual) for every edge of g, in edge order; the
    weight at lambda is d + lambda * slope, with slope = delta_k (raw) or
    delta_k / L (normalized), correctly rounded (int / int division is).

    Computed for both modes in one pass on first use and cached on the graph.
    An edge with a virtual end has slope zero and skips the winding
    arithmetic; the others compute it once per distinct ordered label pair
    (a_u, k_u, a_v, k_v), so GridOverflow still comes at the first edge
    whose grids overflow.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    terms = g._cache.get(mode)
    if terms is None:
        raw, normalized = [], []
        by_id = g._by_id
        slopes: dict[tuple, tuple[float, float]] = {}
        for e in g.edges:
            u, v = by_id[e.u], by_id[e.v]
            if u.is_virtual_boundary or v.is_virtual_boundary:
                vv = u.is_virtual_boundary and v.is_virtual_boundary
                raw.append((e.d, 0.0, vv))
                normalized.append((e.d, 0.0, vv))
                continue
            labels = (u.a, u.k, v.a, v.k)
            pair = slopes.get(labels)
            if pair is None:
                dk, L = _winding_gap(u, v)
                pair = slopes[labels] = float(dk), dk / L
            s_raw, s_norm = pair
            raw.append((e.d, s_raw, False))
            normalized.append((e.d, s_norm, False))
        g._cache[RAW] = tuple(raw)
        g._cache[NORMALIZED] = tuple(normalized)
        terms = g._cache[mode]
    return terms


def edge_weight(
    g: DefectGraph, e: DefectEdge, lam: float, mode: str = NORMALIZED
) -> float:
    """MASD cost of the edge e of g, d + lam * delta_k (raw) or
    d + lam * delta_k / L (normalized); lam = 0 recovers the plain distance
    d.  ValueError when e is not one of g's edges."""
    check_lambda(lam)
    d, slope, _ = edge_terms(g, mode)[g.edges.index(e)]
    return d + lam * slope


def edge_weights(g: DefectGraph, lam: float, mode: str = NORMALIZED) -> list[float]:
    """The MASD weight d + lam * slope of every edge of g, in g.edges order."""
    check_lambda(lam)
    return [d + lam * slope for d, slope, _ in edge_terms(g, mode)]
