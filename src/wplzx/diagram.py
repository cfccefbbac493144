"""Open diagrams of colored weighted spiders, Hadamard nodes and wires.

Diagrams are immutable values: construction validates, rewrites build new
diagrams.  Each node exposes numbered ports; ports ``0..ins-1`` are its
input-side legs and ``ins..ins+outs-1`` its output-side legs, so arity is
derived from wire incidence plus this explicit split.  Boundary ports are
ordered and part of diagram identity.

Wires are an (unordered-endpoint) multiset; parallel wires between two
spiders are kept explicitly because fusion must count connecting legs.
Hadamard is a node kind of fixed degree 2, not an edge decoration.

``build`` also keeps a port table: every node port and every boundary slot
is the end of exactly one wire, and ``Diagram.wire_at`` returns that wire's
index and the endpoint at its far end.  A node port is looked up as the
tuple ``(node id, port)`` and a boundary slot as its ``BoundaryPort``, so no
node id (even ``"in"``) can collide with a slot.  Rewrites, the contraction
network and circuit extraction read wiring from this table instead of
scanning the wires.

Serialized form (UTF-8 JSON)::

    {"inputs": [0, 1, ...], "outputs": [0, ...],
     "nodes": [{"id": ..., "kind": "Z"|"X"|"H", "ins": int,
                "a": int, "alpha": {"num", "den"}, "k": {"num", "den"}}, ...],
     "wires": [[endpoint, endpoint], ...]}

with endpoints ``{"node": id, "port": int}`` or
``{"boundary": "in"|"out", "pos": int}``.  Hadamard nodes omit the label
fields.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .errors import (
    BoundarySlotConflict,
    DanglingWire,
    DuplicateId,
    ParseError,
)
from .phase import SpiderLabel, json_int

NodeId = Union[int, str]

Z = "Z"
X = "X"
H = "H"
SPIDER_KINDS = (Z, X)
NODE_KINDS = (Z, X, H)

IN = "in"
OUT = "out"


def _id_key(i: NodeId):
    return (0, "", i) if isinstance(i, int) else (1, str(i), 0)


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: str
    label: SpiderLabel | None = None
    ins: int = 1
    outs: int = 1

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == H:
            if self.label is not None:
                raise ValueError("Hadamard nodes carry no spider label")
            if (self.ins, self.outs) != (1, 1):
                raise ValueError("Hadamard nodes have exactly one input and one output")
        else:
            if self.label is None:
                raise ValueError("spiders require a label")
        if self.ins < 0 or self.outs < 0:
            raise ValueError("arities must be non-negative")

    @property
    def degree(self) -> int:
        return self.ins + self.outs

    def is_spider(self) -> bool:
        return self.kind in SPIDER_KINDS


@dataclass(frozen=True)
class NodePort:
    node: NodeId
    port: int

    def key(self):
        return (0, _id_key(self.node), self.port)


@dataclass(frozen=True)
class BoundaryPort:
    side: str  # IN or OUT
    pos: int

    def __post_init__(self) -> None:
        if self.side not in (IN, OUT):
            raise ValueError(f"boundary side must be 'in' or 'out', got {self.side!r}")

    def key(self):
        return (1, (0, self.side, 0), self.pos)


Endpoint = Union[NodePort, BoundaryPort]


@dataclass(frozen=True)
class Wire:
    """A wire between two endpoints, stored in canonical order: ``a`` has
    the smaller endpoint key.  The pair of keys is computed once, at
    construction, and kept (outside equality and repr) for ``key()``."""

    a: Endpoint
    b: Endpoint
    _key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Endpoints are unordered; canonicalize so equality is structural.
        ka, kb = self.a.key(), self.b.key()
        if kb < ka:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            ka, kb = kb, ka
        object.__setattr__(self, "_key", (ka, kb))

    def endpoints(self) -> tuple[Endpoint, Endpoint]:
        return (self.a, self.b)

    def key(self):
        return self._key


@dataclass(frozen=True)
class Diagram:
    nodes: tuple[Node, ...]
    wires: tuple[Wire, ...]
    n_inputs: int
    n_outputs: int
    _by_id: dict = field(default=None, compare=False, repr=False)
    _ports: dict = field(default=None, compare=False, repr=False)

    def node(self, node_id: NodeId) -> Node:
        return self._by_id[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._by_id

    @property
    def spiders(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_spider())

    def wire_at(self, port) -> tuple[int, Endpoint]:
        """(wire index, far endpoint) of the wire at a node port, given as
        ``(node id, port)``, or at a boundary slot, given as its
        ``BoundaryPort``.  A self-loop's far endpoint is its other port."""
        return self._ports[port]

    def wires_between(self, u: NodeId, v: NodeId) -> list[int]:
        """Indices of wires joining u and v (u != v)."""
        node = self._by_id.get(u)
        if node is None:
            return []
        ends = (self._ports[(u, p)] for p in range(node.degree))
        return sorted(i for i, far in ends if isinstance(far, NodePort) and far.node == v)

    def incident(self, node_id: NodeId) -> list[tuple[int, NodePort]]:
        """(wire index, endpoint) pairs touching the node, by wire index,
        self-loops twice."""
        node = self._by_id.get(node_id)
        if node is None:
            return []
        legs = sorted((self._ports[(node_id, p)][0], p) for p in range(node.degree))
        return [(i, NodePort(node_id, p)) for i, p in legs]


def build(
    nodes: Iterable[Node],
    wires: Iterable[Wire],
    inputs: int,
    outputs: int,
) -> Diagram:
    """Validate and assemble a diagram.

    ``inputs``/``outputs`` are the boundary port counts; slots are addressed
    by position 0..n-1.  Raises DuplicateId, DanglingWire or
    BoundarySlotConflict on malformed input.
    """
    node_list = sorted(nodes, key=lambda n: _id_key(n.id))
    by_id: dict[NodeId, Node] = {}
    for n in node_list:
        if n.id in by_id:
            raise DuplicateId(f"duplicate node id {n.id!r}")
        by_id[n.id] = n

    wire_list = sorted(wires, key=Wire.key)
    port_use: dict[tuple[NodeId, int], int] = {}
    slot_use: dict[tuple[str, int], int] = {}
    ports: dict = {}  # (node id, port) or BoundaryPort -> (wire index, far end)
    for i, w in enumerate(wire_list):
        a, b = w.a, w.b
        if isinstance(a, NodePort) and isinstance(b, NodePort) and a.node == b.node:
            if a.node in by_id and not by_id[a.node].is_spider():
                raise DanglingWire(f"self-loop on non-spider node {a.node!r}")
        for ep, far in ((a, b), (b, a)):
            if isinstance(ep, NodePort):
                if ep.node not in by_id:
                    raise DanglingWire(f"wire references missing node {ep.node!r}")
                node = by_id[ep.node]
                if not 0 <= ep.port < node.degree:
                    raise DanglingWire(
                        f"wire references port {ep.port} of node {ep.node!r} "
                        f"(degree {node.degree})"
                    )
                key = (ep.node, ep.port)
                port_use[key] = port_use.get(key, 0) + 1
                ports[key] = (i, far)
            else:
                n_slots = inputs if ep.side == IN else outputs
                if not 0 <= ep.pos < n_slots:
                    raise BoundarySlotConflict(
                        f"boundary slot {ep.side}[{ep.pos}] out of range"
                    )
                slot_use[(ep.side, ep.pos)] = slot_use.get((ep.side, ep.pos), 0) + 1
                ports[ep] = (i, far)

    for n in node_list:
        for p in range(n.degree):
            if port_use.get((n.id, p), 0) != 1:
                raise DanglingWire(
                    f"port {p} of node {n.id!r} used "
                    f"{port_use.get((n.id, p), 0)} times (want exactly 1)"
                )
    for side, count in ((IN, inputs), (OUT, outputs)):
        for pos in range(count):
            if slot_use.get((side, pos), 0) != 1:
                raise BoundarySlotConflict(
                    f"boundary slot {side}[{pos}] used "
                    f"{slot_use.get((side, pos), 0)} times (want exactly 1)"
                )

    return Diagram(tuple(node_list), tuple(wire_list), inputs, outputs, by_id, ports)


def same_color_pairs(d: Diagram) -> Iterator[tuple[NodeId, NodeId]]:
    """(u, v) for every wire joining two distinct spiders of one color.

    One pair per wire, so parallel wires repeat it; u precedes v in id order.
    """
    for w in d.wires:
        a, b = w.a, w.b
        if isinstance(a, NodePort) and isinstance(b, NodePort) and a.node != b.node:
            u, v = d.node(a.node), d.node(b.node)
            if u.is_spider() and u.kind == v.kind:
                yield a.node, b.node


def monochrome_regions(d: Diagram) -> list[frozenset[NodeId]]:
    """Maximal sets of same-color spiders connected by direct wires.

    Two spiders share a region iff they are joined by a path of wires running
    entirely through spiders of that color; Hadamard nodes and opposite-color
    spiders break regions.
    """
    return [frozenset(order) for order in region_orders(d)]


def same_color_neighbours(d: Diagram) -> dict[NodeId, set[NodeId]]:
    """Each spider's id -> the other spiders of its color wired to it."""
    adjacent: dict = {n.id: set() for n in d.spiders}
    for u, v in same_color_pairs(d):
        adjacent[u].add(v)
        adjacent[v].add(u)
    return adjacent


def region_orders(d: Diagram) -> list[list[NodeId]]:
    """Each monochrome region's spiders, regions by smallest id r.

    Members come in smallest-id-first frontier order from r: next is always
    the smallest-id member wired to one already listed.  Pairwise fusion of
    a region absorbs its spiders into r in exactly this order.
    """
    adjacent = same_color_neighbours(d)
    orders, seen = [], set()
    for r in adjacent:
        if r in seen:
            continue
        seen.add(r)
        order, frontier = [], [(_id_key(r), r)]
        while frontier:
            _, u = heapq.heappop(frontier)
            order.append(u)
            for v in adjacent[u] - seen:
                seen.add(v)
                heapq.heappush(frontier, (_id_key(v), v))
        orders.append(order)
    return orders


# --- serialization ---


def _endpoint_to_json(ep: Endpoint) -> dict:
    if isinstance(ep, NodePort):
        return {"node": ep.node, "port": ep.port}
    return {"boundary": ep.side, "pos": ep.pos}


def _endpoint_from_json(obj: dict) -> Endpoint:
    if "node" in obj:
        return NodePort(obj["node"], json_int(obj, "port"))
    if "boundary" in obj:
        side = obj["boundary"]
        if side not in (IN, OUT):
            raise ParseError(f"bad boundary side {side!r}")
        return BoundaryPort(side, json_int(obj, "pos"))
    raise ParseError(f"endpoint needs 'node' or 'boundary': {obj!r}")


def to_json_obj(d: Diagram) -> dict:
    nodes = []
    for n in d.nodes:
        entry: dict = {"id": n.id, "kind": n.kind, "ins": n.ins}
        if n.is_spider():
            entry.update(n.label.to_json())
        nodes.append(entry)
    return {
        "inputs": list(range(d.n_inputs)),
        "outputs": list(range(d.n_outputs)),
        "nodes": nodes,
        "wires": [
            [_endpoint_to_json(w.a), _endpoint_to_json(w.b)] for w in d.wires
        ],
    }


def serialize(d: Diagram) -> str:
    return json.dumps(to_json_obj(d), sort_keys=True, separators=(",", ":")) + "\n"


def from_json_obj(obj: dict) -> Diagram:
    try:
        for key in ("inputs", "outputs"):
            slots = obj[key]
            if not (
                isinstance(slots, list)
                and all(type(s) is int for s in slots)
                and slots == list(range(len(slots)))
            ):
                raise ParseError(f"{key} must be [0, 1, ..., n-1], got {slots!r}")
        wires = [
            Wire(_endpoint_from_json(w[0]), _endpoint_from_json(w[1]))
            for w in obj["wires"]
        ]
        # A spider's output arity is recovered from wire incidence.
        degree: dict = {}
        for w in wires:
            for ep in w.endpoints():
                if isinstance(ep, NodePort):
                    degree[ep.node] = max(degree.get(ep.node, 0), ep.port + 1)
        nodes = []
        for i, entry in enumerate(obj["nodes"]):
            kind = entry["kind"]
            if kind not in NODE_KINDS:
                raise ParseError(f"nodes[{i}]: unknown kind {kind!r}")
            nid = entry["id"]
            if not isinstance(nid, (int, str)):
                raise ParseError(f"nodes[{i}]: id must be int or str")
            if kind == H:
                nodes.append(Node(nid, H, None, 1, 1))
                continue
            label = SpiderLabel.from_json(entry)
            ins = json_int(entry, "ins")
            nodes.append(Node(nid, kind, label, ins, max(degree.get(nid, ins) - ins, 0)))
        return build(nodes, wires, len(obj["inputs"]), len(obj["outputs"]))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed diagram object: {exc}") from exc


def deserialize(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level diagram value must be an object")
    return from_json_obj(obj)
