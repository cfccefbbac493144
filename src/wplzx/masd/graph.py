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
the exact values (``label_slopes``, the one place a winding gap becomes a
slope).

The decoder reads one array form of an instance, a ``DefectArrays``: the
DP vertex ids (a sampled instance's sorted defect checks), one row (d, raw
slope, normalized slope) per edge the matcher may read, and the matcher's
layout over those rows.  Its weight format is a list aligned with the
rows, d + lam * slope per row (``edge_weights``), so a lambda grid does the
integer winding arithmetic once per instance.  Two builders make the form.
The surface-code sampler builds it directly from per-code arrays (pair
distances, boundary distances, one slope per label pair; see ``surface``),
and wraps it in a ``DefectGraph`` that builds its vertex and edge tuples,
virtual-virtual clique included, from those rows only when a caller reads
them.  Any other graph (a file, a constructor call) is converted by
``defect_arrays`` once, in one pass over its edges, and the form is cached
on the graph.  Row k of a form is edge k of its graph either way, so a
matching names the edges it paid by their ``g.edges`` positions.  A
sampled form's rows are also the DP kernel's slots (``_dp``), and a
converted one maps slots to rows.  The form also keeps the decoder's
lambda-independent terms (DRG_pm slope) and the matcher's last solve:
since slope >= 0, a larger lambda only raises weights, and a matching that
paid only unchanged weights is returned again without a new solve (see
``matching``).  Vertices and edges are frozen and hold no cache.

Serialized form (JSON)::

    {"vertices": [{"id", "pos": [r, c], "a", "k", "virtual": bool}, ...],
     "edges": [{"u", "v", "d"}, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..errors import NegativeLambda, ParseError
from ..phase import check_grid_order, json_int, json_number, lcm_order
from ._dp import slot

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
    The surface-code sampler's graphs come from ``from_arrays``: they hold
    their array form, and build their vertices and edges, the
    virtual-virtual clique included, only when a caller first reads them.
    """

    vertices: tuple[DefectVertex, ...]
    edges: tuple[DefectEdge, ...]
    # The array form, converted on first use (see defect_arrays).
    _arrays: DefectArrays = field(default=None, init=False, compare=False, repr=False)

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

    @classmethod
    def from_arrays(cls, arrays: DefectArrays, build) -> DefectGraph:
        """The graph whose array form is ``arrays`` and whose (vertices,
        edges) ``build()`` returns, unchecked, on the first read."""
        g = object.__new__(cls)
        g.__dict__.update(_arrays=arrays, _build=build)
        return g

    def __getattr__(self, name: str):
        # Reached only for a ``from_arrays`` graph's vertices, edges and id
        # index before the first read of any of them: every other instance
        # attribute is set on the instance.
        if name not in ("vertices", "edges", "_by_id") or "_build" not in self.__dict__:
            raise AttributeError(name)
        vertices, edges = self._build()
        self.__dict__.update(vertices=vertices, edges=edges, _by_id={v.id: v for v in vertices})
        return self.__dict__[name]

    def vertex(self, vid: VertexId) -> DefectVertex:
        return self._by_id[vid]

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


def _winding_gap(a_u: int, k_u: int, a_v: int, k_v: int) -> tuple[int, int]:
    """(delta_k, L) for two real vertices' labels: the integer winding gap
    on their common grid L = lcm(a_u, a_v), which raises GridOverflow past
    the cap."""
    L = lcm_order(a_u, a_v)
    return abs(k_u * (L // a_u) - k_v * (L // a_v)), L


def winding_difference(u: DefectVertex, v: DefectVertex) -> int:
    """Exact winding discrepancy on the lcm(a_u, a_v) refinement grid."""
    if u.is_virtual_boundary or v.is_virtual_boundary:
        return 0
    return _winding_gap(u.a, u.k, v.a, v.k)[0]


def label_slopes(a_u: int, k_u: int, a_v: int, k_v: int) -> tuple[float, float]:
    """(raw, normalized) slope of an edge between two real vertices with
    labels (a_u, k_u) and (a_v, k_v): delta_k and delta_k / L, correctly
    rounded (int / int division is).  The one place a winding gap becomes
    a slope."""
    dk, L = _winding_gap(a_u, k_u, a_v, k_v)
    return float(dk), dk / L


def check_lambda(lam: float) -> None:
    """NegativeLambda unless the penalty strength lam is finite and >= 0."""
    if not 0.0 <= lam < math.inf:
        raise NegativeLambda(f"lambda must be finite and >= 0, got {lam}")


def slope_column(mode: str) -> int:
    """The position of mode's slope in an array-form row (d, raw, normalized)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return 1 if mode == RAW else 2


@dataclass(eq=False, slots=True)
class DefectArrays:
    """The array form of one decoding instance: what the decoder reads.

    ``ids`` are the DP vertices in DP order (a sampled instance's sorted
    defect checks), and ``real_vertices`` the ids of the real defects (the
    benchmark's defect histogram reads them).  ``edges`` holds one row (d,
    raw slope, normalized slope) per edge the matcher may read, in the
    order of its graph's edges: row k is the graph's edge k.  A sampled
    graph has more edges after the rows, its free virtual-virtual clique,
    which the matcher never reads; a converted file graph has one row per
    edge.
    ``virtual_rows`` holds the rows joining two virtuals, which the DRG
    metrics skip.  The matcher's layout (see ``matching``): ``virtuals``,
    the virtual ids left to pair among themselves in ``repr`` order;
    ``retire``, (DP index, virtual id, row) per retirement candidate in
    virtual order; and ``slot_rows``, the row of each of the DP's slots
    (``_dp.slot``), -1 where none, or None when row k is slot k (a sampled
    form).  ``_cache`` keeps the decoder's lambda-independent terms: the
    DRG_pm slope per (mode, beta) and the matcher's last solve.
    """

    ids: tuple
    real_vertices: tuple
    edges: tuple
    virtual_rows: frozenset
    virtuals: tuple
    retire: tuple
    slot_rows: Sequence | None = None
    _cache: dict = field(default_factory=dict, repr=False)


def defect_arrays(g: DefectGraph | DefectArrays) -> DefectArrays:
    """The array form of g: g itself when it is one, else the form g was
    sampled with, else g converted once and cached on it."""
    if isinstance(g, DefectArrays):
        return g
    arrays = g._arrays
    if arrays is None:
        arrays = _convert(g)
        object.__setattr__(g, "_arrays", arrays)
    return arrays


def _convert(g: DefectGraph) -> DefectArrays:
    """The array form of any defect graph, in one pass over its edges.

    An edge with a virtual end has slope zero and skips the winding
    arithmetic; the others compute it once per distinct ordered label pair
    (a_u, k_u, a_v, k_v), so GridOverflow comes at the first edge whose
    grids overflow, and nothing is cached then.  Only the reals enter the
    DP unless there are fewer virtuals than reals or a virtual has more
    than one edge to a real: then the layout is arbitrary, every vertex
    enters the DP and none retires.  A pair's slot maps to the last edge
    joining it, and no boundary slot maps to an edge.
    """
    vertices = g.vertices
    position = {v.id: p for p, v in enumerate(vertices)}
    reals = [p for p, v in enumerate(vertices) if not v.is_virtual_boundary]
    attached: dict[int, list] = {p: [] for p, v in enumerate(vertices) if v.is_virtual_boundary}
    rows, virtual_rows = [], set()
    slopes: dict[tuple, tuple[float, float]] = {}
    for k, e in enumerate(g.edges):
        p, q = position[e.u], position[e.v]
        u, v = vertices[p], vertices[q]
        if u.is_virtual_boundary or v.is_virtual_boundary:
            rows.append((e.d, 0.0, 0.0))
            if u.is_virtual_boundary and v.is_virtual_boundary:
                virtual_rows.add(k)
            elif u.is_virtual_boundary:
                attached[p].append((q, k))
            else:
                attached[q].append((p, k))
            continue
        labels = (u.a, u.k, v.a, v.k)
        pair = slopes.get(labels)
        if pair is None:
            pair = slopes[labels] = label_slopes(*labels)
        rows.append((e.d, *pair))
    if len(attached) < len(reals) or any(len(c) > 1 for c in attached.values()):
        dp, virtuals, candidates = list(range(len(vertices))), [], []
    else:
        dp = reals
        virtuals = sorted((vertices[p].id for p in attached), key=repr)
        candidates = [(real, p, k) for p, cands in attached.items() for real, k in cands]
    index, n = {p: i for i, p in enumerate(dp)}, len(dp)
    slot_rows = [-1] * (n * (n + 1) // 2)
    for k, e in enumerate(g.edges):
        i, j = index.get(position[e.u]), index.get(position[e.v])
        if i is not None and j is not None:
            slot_rows[slot(min(i, j), max(i, j), n)] = k
    return DefectArrays(
        ids=tuple(vertices[p].id for p in dp),
        real_vertices=tuple(vertices[p].id for p in reals),
        edges=tuple(rows),
        virtual_rows=frozenset(virtual_rows),
        virtuals=tuple(virtuals),
        retire=tuple((index[real], vertices[p].id, k) for real, p, k in candidates),
        slot_rows=slot_rows,
    )


def edge_weight(
    g: DefectGraph, e: DefectEdge, lam: float, mode: str = NORMALIZED
) -> float:
    """MASD cost of the edge e of g, d + lam * delta_k (raw) or
    d + lam * delta_k / L (normalized); lam = 0 recovers the plain distance
    d.  ValueError when e is not one of g's edges."""
    return edge_weights(g, lam, mode)[g.edges.index(e)]


def edge_weights(
    g: DefectGraph | DefectArrays, lam: float, mode: str = NORMALIZED
) -> list[float]:
    """The MASD weight d + lam * slope of every edge of the defect graph g,
    in g.edges order, or of every row of an array form, with slope =
    delta_k (raw) or delta_k / L (normalized).  Read from g's array form;
    a graph's edges after the form's rows are free virtual-virtual edges."""
    check_lambda(lam)
    col = slope_column(mode)
    weights = [row[0] + lam * row[col] for row in defect_arrays(g).edges]
    if not isinstance(g, DefectArrays):
        weights += [e.d for e in g.edges[len(weights) :]]
    return weights
