"""Open diagrams of colored weighted spiders, Hadamard nodes and wires.

Diagrams are immutable values: construction validates, rewrites build new
diagrams.  Each node exposes numbered ports; ports ``0..ins-1`` are its
input-side legs and ``ins..ins+outs-1`` its output-side legs, so arity is
derived from wire incidence plus this explicit split.  Boundary ports are
ordered and part of diagram identity.

Wires are a multiset; parallel wires between two spiders are kept
explicitly because fusion must count connecting legs.  Hadamard is a node
kind of fixed degree 2, not an edge decoration.

A diagram keeps its wiring as integer tables, built once.  Every node port
and boundary slot has a port id: the ports of the nodes in node-id order,
node i's ports 0..degree-1 at ``first[i]``, ``first[i] + 1``, ...; then the
input slots by position, then the output slots (``first[-1]`` is the
number of node ports).  ``far[p]`` is the port id at the other end of p's
wire, and a wire is named by its lower port id ``min(p, far[p])``; wires
are listed in that order.  Loading, rewrites, the contraction network,
circuit extraction and serialization all read these two tables.
``NodePort``, ``BoundaryPort`` and ``Wire`` are records of ``build``'s
input only; rewrites pass ``build`` port-id pairs instead.

Serialized form (UTF-8 JSON)::

    {"inputs": [0, 1, ...], "outputs": [0, ...],
     "nodes": [{"id": ..., "kind": "Z"|"X"|"H", "ins": int,
                "a": int, "alpha": {"num", "den"}, "k": {"num", "den"}}, ...],
     "wires": [[endpoint, endpoint], ...]}

with endpoints ``{"node": id, "port": int}`` or
``{"boundary": "in"|"out", "pos": int}``.  A node id is a JSON integer or
string, and an endpoint names one by the same type and value.  Hadamard
nodes omit the label fields.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import (
    BoundarySlotConflict,
    DanglingWire,
    DuplicateId,
    ParseError,
)
from .phase import RationalAngle, SpiderLabel, json_int

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


@dataclass(frozen=True)
class BoundaryPort:
    side: str  # IN or OUT
    pos: int

    def __post_init__(self) -> None:
        if self.side not in (IN, OUT):
            raise ValueError(f"boundary side must be 'in' or 'out', got {self.side!r}")


@dataclass(frozen=True)
class Wire:
    """A wire between two ends, as ``build`` takes it; the ends are kept in
    the order given."""

    a: NodePort | BoundaryPort
    b: NodePort | BoundaryPort


@dataclass(frozen=True)
class Diagram:
    """Nodes in node-id order, the boundary counts and the port tables (see
    the module docstring).  Two diagrams are equal when their nodes,
    boundary counts and ``far`` tables are; ``first`` and ``index`` (node
    id -> position in ``nodes``) follow from those."""

    nodes: tuple[Node, ...]
    n_inputs: int
    n_outputs: int
    far: tuple[int, ...]
    first: tuple[int, ...] = field(compare=False, repr=False)
    index: dict = field(compare=False, repr=False)

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[self.index[node_id]]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self.index

    @property
    def spiders(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_spider())

    def owner(self, p: int) -> int:
        """Position in ``nodes`` of the node whose port p is; ``len(nodes)``
        for a boundary slot."""
        return bisect_right(self.first, p) - 1

    def wires_between(self, u: NodeId, v: NodeId) -> list[int]:
        """The wires joining u and v (u != v), each named by its lower port
        id, in increasing order."""
        if u not in self.index or v not in self.index:
            return []
        i, j = self.index[u], self.index[v]
        first, far = self.first, self.far
        lo, hi = first[j], first[j + 1]
        return sorted(min(p, far[p]) for p in range(first[i], first[i + 1]) if lo <= far[p] < hi)


# Stand-ins for the boundary sides among the node ids of an endpoint list:
# objects no node id equals, since a node may be named "in".
_SIDE = {IN: object(), OUT: object()}


def _assemble(
    nodes: Iterable[Node], ids: list, ports: list, pairs: list, inputs: int, outputs: int
) -> Diagram:
    """Validate and assemble a diagram from its nodes and its wires' ends:
    its ``first`` and ``far`` tables are all the wiring it keeps.  ``ids``
    and ``ports`` list ends, two per wire in turn: end k is port
    ``ports[k]`` of the node ``ids[k]``, or slot ``ports[k]`` of a boundary
    side when ``ids[k]`` is that side's ``_SIDE`` stand-in.  ``pairs`` lists
    more wires, each as the (p, q) port ids of its ends in the diagram
    built."""
    if inputs < 0 or outputs < 0:
        raise BoundarySlotConflict(f"boundary counts must be >= 0, got {inputs} in, {outputs} out")
    nodes = sorted(nodes, key=lambda n: _id_key(n.id))
    index: dict = {}
    first = [0]
    for i, n in enumerate(nodes):
        if n.id in index:
            raise DuplicateId(f"duplicate node id {n.id!r}")
        index[n.id] = i
        first.append(first[-1] + n.degree)
    n_ports = first[-1]
    slots = {_SIDE[IN]: (IN, n_ports, inputs), _SIDE[OUT]: (OUT, n_ports + inputs, outputs)}
    total = n_ports + inputs + outputs

    ends = []
    for nid, k in zip(ids, ports):
        i = index.get(nid)
        if i is not None:
            if not 0 <= k < first[i + 1] - first[i]:
                raise DanglingWire(
                    f"wire references port {k} of node {nid!r} (degree {nodes[i].degree})"
                )
            ends.append(first[i] + k)
        elif nid in slots:
            side, base, count = slots[nid]
            if not 0 <= k < count:
                raise BoundarySlotConflict(f"boundary slot {side}[{k}] out of range")
            ends.append(base + k)
        else:
            raise DanglingWire(f"wire references missing node {nid!r}")
    for p, q in pairs:
        if not (0 <= p < total and 0 <= q < total):
            raise DanglingWire(f"wire {(p, q)} names a port id outside 0..{total - 1}")
        ends.append(p)
        ends.append(q)

    far = [-1] * total
    pair = iter(ends)
    for a, b in zip(pair, pair):
        far[a] = b
        far[b] = a
    for i, n in enumerate(nodes):
        if n.kind == H and far[first[i]] == first[i] + 1:
            raise DanglingWire(f"self-loop on non-spider node {n.id!r}")
    # Every port is some wire's end exactly once iff there are as many ends
    # as ports and none is left unset.
    if len(ends) != total or -1 in far:
        uses = Counter(ends)
        p = next(p for p in range(total) if uses[p] != 1)
        if p < n_ports:
            i = bisect_right(first, p) - 1
            raise DanglingWire(
                f"port {p - first[i]} of node {nodes[i].id!r} used {uses[p]} times (want exactly 1)"
            )
        side, pos = (IN, p - n_ports) if p < n_ports + inputs else (OUT, p - n_ports - inputs)
        raise BoundarySlotConflict(
            f"boundary slot {side}[{pos}] used {uses[p]} times (want exactly 1)"
        )
    return Diagram(tuple(nodes), inputs, outputs, tuple(far), tuple(first), index)


def build(
    nodes: Iterable[Node],
    wires: Iterable[Wire | tuple[int, int]],
    inputs: int,
    outputs: int,
) -> Diagram:
    """Validate and assemble a diagram.

    ``inputs``/``outputs`` are the boundary port counts; slots are addressed
    by position 0..n-1.  Each wire is a ``Wire``, or the pair (p, q) of its
    ends' port ids in the diagram built, numbered as the module docstring
    says from ``nodes`` and the slot counts; rewrites pass their wires that
    way.  Raises DuplicateId, DanglingWire or BoundarySlotConflict on
    malformed input.
    """
    ids, ports, pairs = [], [], []
    for w in wires:
        if not isinstance(w, Wire):
            pairs.append(w)
            continue
        for ep in (w.a, w.b):
            if isinstance(ep, NodePort):
                ids.append(ep.node)
                ports.append(ep.port)
            else:
                ids.append(_SIDE[ep.side])
                ports.append(ep.pos)
    return _assemble(nodes, ids, ports, pairs, inputs, outputs)


def monochrome_regions(d: Diagram) -> list[frozenset[NodeId]]:
    """Maximal sets of same-color spiders connected by direct wires.

    Two spiders share a region iff they are joined by a path of wires running
    entirely through spiders of that color; Hadamard nodes and opposite-color
    spiders break regions.
    """
    return [frozenset(order) for order in region_orders(d)]


def _adjacency(d: Diagram) -> dict[int, set[int]]:
    """Each spider's position in ``d.nodes`` -> the positions of the other
    spiders of its color wired to it, spiders in node order."""
    nodes, first, far = d.nodes, d.first, d.far
    adjacent = {i: set() for i, n in enumerate(nodes) if n.kind != H}
    for i in adjacent:
        kind = nodes[i].kind
        for p in range(first[i], first[i + 1]):
            q = far[p]
            if p < q < first[-1]:  # each node-to-node wire once, from its lower end
                j = bisect_right(first, q) - 1
                if j != i and nodes[j].kind == kind:
                    adjacent[i].add(j)
                    adjacent[j].add(i)
    return adjacent


def region_orders(d: Diagram) -> list[list[NodeId]]:
    """Each monochrome region's spiders, regions by smallest id r.

    Members come in smallest-id-first frontier order from r: next is always
    the smallest-id member wired to one already listed.  Pairwise fusion of
    a region absorbs its spiders into r in exactly this order.  Positions in
    ``d.nodes`` are in id order, so the frontier is a heap of positions.
    """
    nodes = d.nodes
    adjacent = _adjacency(d)
    orders, seen = [], set()
    for r in adjacent:
        if r in seen:
            continue
        seen.add(r)
        order, frontier = [], [r]
        while frontier:
            u = heapq.heappop(frontier)
            order.append(nodes[u].id)
            for v in adjacent[u] - seen:
                seen.add(v)
                heapq.heappush(frontier, v)
        orders.append(order)
    return orders


# --- serialization ---


def to_json_obj(d: Diagram) -> dict:
    nodes = []
    for n in d.nodes:
        entry: dict = {"id": n.id, "kind": n.kind, "ins": n.ins}
        if n.is_spider():
            entry.update(n.label.to_json())
        nodes.append(entry)
    ends = [{"node": n.id, "port": k} for n in d.nodes for k in range(n.degree)]
    ends += [{"boundary": IN, "pos": k} for k in range(d.n_inputs)]
    ends += [{"boundary": OUT, "pos": k} for k in range(d.n_outputs)]
    return {
        "inputs": list(range(d.n_inputs)),
        "outputs": list(range(d.n_outputs)),
        "nodes": nodes,
        "wires": [[ends[p], ends[q]] for p, q in enumerate(d.far) if p < q],
    }


def serialize(d: Diagram) -> str:
    return json.dumps(to_json_obj(d), sort_keys=True, separators=(",", ":")) + "\n"


def _spider_label(entry: dict, seen: dict) -> SpiderLabel:
    """The label of a spider entry.  Label fields that are five JSON ints
    (a, alpha num/den, k num/den) load once per file: ``seen`` maps them to
    their label.  Any other fields go to ``SpiderLabel.from_json``, which
    raises the field's error; a bool or float never matches an int key
    (True == 1 and 8.0 == 8 hash alike)."""
    try:
        alpha, k = entry["alpha"], entry["k"]
        key = a, an, ad, kn, kd = entry["a"], alpha["num"], alpha["den"], k["num"], k["den"]
    except (KeyError, TypeError):
        return SpiderLabel.from_json(entry)
    if not (type(a) is type(an) is type(ad) is type(kn) is type(kd) is int):
        return SpiderLabel.from_json(entry)
    label = seen.get(key)
    if label is None:
        label = seen[key] = SpiderLabel(a, RationalAngle(an, ad), RationalAngle(kn, kd))
    return label


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
        ids, ports = [], []
        degree: dict = {}  # a spider's output arity is recovered from wire incidence
        for i, w in enumerate(obj["wires"]):
            if type(w) is not list or len(w) != 2:
                raise ParseError(f"wires[{i}] must be a list of two endpoints")
            for ep in w:
                if "node" in ep:
                    nid, k = ep["node"], ep["port"]
                    if type(nid) is not int and type(nid) is not str:
                        raise ParseError(f"endpoint node must be an int or str id, got {nid!r}")
                    if type(k) is not int:
                        raise ParseError(f"port must be an integer, got {k!r}")
                    if k >= degree.get(nid, 0):
                        degree[nid] = k + 1
                elif "boundary" in ep:
                    side = ep["boundary"]
                    if side not in (IN, OUT):
                        raise ParseError(f"bad boundary side {side!r}")
                    nid, k = _SIDE[side], json_int(ep, "pos")
                else:
                    raise ParseError(f"endpoint needs 'node' or 'boundary': {ep!r}")
                ids.append(nid)
                ports.append(k)
        nodes = []
        labels: dict = {}  # see _spider_label
        for i, entry in enumerate(obj["nodes"]):
            kind = entry["kind"]
            if kind not in NODE_KINDS:
                raise ParseError(f"nodes[{i}]: unknown kind {kind!r}")
            nid = entry["id"]
            if type(nid) is not int and type(nid) is not str:
                raise ParseError(f"nodes[{i}]: id must be an int or str, got {nid!r}")
            if kind == H:
                nodes.append(Node(nid, H, None, 1, 1))
                continue
            label = _spider_label(entry, labels)
            ins = json_int(entry, "ins")
            nodes.append(Node(nid, kind, label, ins, max(degree.get(nid, ins) - ins, 0)))
        return _assemble(nodes, ids, ports, (), len(obj["inputs"]), len(obj["outputs"]))
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
