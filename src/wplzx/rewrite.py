"""Diagram rewriting: fusion, identity removal, color change, normalization.

The normalizer collapses every maximal *same-color* region to a single spider
carrying the canonical label (L, theta, 0), where L is the LCM of the region's
grid orders and theta the sum of total angles mod one turn.  Collapsing whole
mixed-color components would not be semantics-preserving, so regions are the
fusion scope.

Fusion lifts labels to the common refinement grid with index arithmetic that
preserves angle values exactly: the fused base phase is alpha_u + alpha_v and
the fused winding is (L/a_u) k_u + (L/a_v) k_v, which together reproduce
theta_u + theta_v.  The lifting is associative, so one routine fuses a whole
group in one step: ``fuse_pair`` is a one-step replay run, checked as
``apply_trace`` checks each ``fuse`` entry, and the normalizer passes every
region in the order pairwise fusion would absorb it.  Labels fold in
integers: each sum is a numerator over the lcm of its denominators, as
``phase.total_angle`` computes, and is reduced once.  Every rewrite is
recorded, pairwise, in a replayable trace.

Replay (``apply_trace``) batches the same way: each run of consecutive
``fuse`` and ``normalize-label`` entries becomes one group fusion and one
``build``, so replay is linear in the trace, while every entry is still
checked on its own against the state the entries before it left.  A run
keeps one member list per surviving spider, in absorption order: the
connectivity check reads it, and so does the group fusion.  A ``fuse`` or
``normalize-label`` entry must also record in ``produced`` the spider it
leaves.

Every rule reads the diagram's port tables (``far`` and ``first``; see
``diagram``) and hands ``build`` its new wiring as port-id pairs of
the diagram it builds: fusion drops the consumed legs and renumbers the
rest, identity removal joins the far ends of the spider's two wires, and
color change gives each leg a Hadamard node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import diagram as dg
from .diagram import Diagram, Node, build
from .errors import (
    ColorMismatch,
    NotConnected,
    NotIdentity,
    ParseError,
    ResourceCapError,
    TraceReplayError,
)
from .phase import RationalAngle, SpiderLabel, TotalAngle, lcm_order, total_angle


@dataclass(frozen=True)
class CanonicalLabel:
    """Per-region normal form: global LCM weight and aggregated total angle.

    ``on_grid`` records whether theta actually lies on the order-L grid (raw
    continuous inputs may be off-grid); ``winding_sum`` is the lifted winding
    accumulated before it was absorbed into the total angle, kept as a
    side-channel for winding-aware consumers.
    """

    L: int
    theta: TotalAngle
    in_arity: int
    out_arity: int
    on_grid: bool
    winding_sum: RationalAngle

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "theta": self.theta.turns.to_json(),
            "in_arity": self.in_arity,
            "out_arity": self.out_arity,
            "on_grid": self.on_grid,
            "winding_sum": self.winding_sum.to_json(),
        }


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    consumed: tuple
    produced: tuple
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "consumed": list(self.consumed),
            "produced": list(self.produced),
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, obj) -> TraceEntry:
        if not isinstance(obj, dict):
            raise ParseError("trace entry must be an object")
        if "rule" not in obj:
            raise ParseError("trace entry needs a 'rule'")
        for key in ("consumed", "produced"):
            if not isinstance(obj.get(key), list):
                raise ParseError(f"trace entry needs a '{key}' list")
        detail = obj.get("detail", {})
        if not isinstance(detail, dict):
            raise ParseError("trace entry 'detail' must be an object")
        return cls(
            str(obj["rule"]), tuple(obj["consumed"]), tuple(obj["produced"]), dict(detail)
        )


@dataclass
class RewriteTrace:
    """Ordered record of rule applications; replayable and JSONL-serializable."""

    entries: list[TraceEntry] = field(default_factory=list)

    def append(self, entry: TraceEntry) -> None:
        self.entries.append(entry)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
            for e in self.entries
        )

    @classmethod
    def from_jsonl(cls, text: str) -> RewriteTrace:
        """Parse one entry per non-blank line; raises ParseError naming the
        1-based line of the first malformed one."""
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"trace line {lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
                ) from exc
            try:
                entries.append(TraceEntry.from_json(obj))
            except ParseError as exc:
                raise ParseError(f"trace line {lineno}: {exc}") from exc
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def node_total_angle(node: Node) -> TotalAngle:
    return total_angle(node.label)


def fuse_pair(d: Diagram, u, v) -> Diagram:
    """Fuse two connected same-color spiders into one on the LCM grid.

    All c connecting wires are removed (total arity drops by 2c); surviving
    legs re-attach to the merged spider, which keeps u's id.
    """
    run = _FusionRun(d)
    run.fuse(u, v)
    return run.diagram()


def _fold(labels) -> SpiderLabel:
    """The label of spiders fused in the given order: L = lcm of the grids,
    alpha = sum mod 1 and k = sum of k_i * L / a_i; a single label is
    returned as it is, its alpha not reduced mod 1.

    Both sums are integer numerators over the lcm of their denominators,
    reduced once, by the ``RationalAngle`` they end in.  The lcm is folded
    from the first label's grid on, so GridOverflow names the running grid
    and the grid that first takes it over GRID_ORDER_CAP, as pairwise fusion
    does.
    """
    first = labels[0]
    L = first.grid
    alpha_num, alpha_den = first.alpha.num, first.alpha.den
    k_num, k_den = first.winding.num, first.winding.den
    for lab in labels[1:]:
        L_new = lcm_order(L, lab.grid)
        alpha, k = lab.alpha, lab.winding
        den = math.lcm(alpha_den, alpha.den)
        alpha_num = (alpha_num * (den // alpha_den) + alpha.num * (den // alpha.den)) % den
        alpha_den = den
        den = math.lcm(k_den, k.den)
        k_num = k_num * (den // k_den) * (L_new // L) + k.num * (den // k.den) * (L_new // lab.grid)
        k_den, L = den, L_new
    return SpiderLabel(L, RationalAngle(alpha_num, alpha_den), RationalAngle(k_num, k_den))


def _fuse_groups(d: Diagram, groups) -> tuple[list[Node], list[tuple[int, int]]]:
    """Fuse each group of connected same-color spiders, listed in absorption
    order, into one spider with the first member's id; returns the node list
    and the wires, as port-id pairs, for one ``build``.

    The result equals fusing the members pairwise in that order: the label
    is their ``_fold``; wires between distinct members are consumed;
    surviving legs are renumbered inputs first, each side by member, then by
    port.  Everything is read from d's port tables.  A fused spider keeps
    its first member's id, so the nodes left keep their order, and the new
    port ids number their legs in that order, then the boundary slots.
    """
    nodes, first, far, index = d.nodes, d.first, d.far, d.index
    root = {index[m]: index[g[0]] for g in groups for m in g}  # member -> its group's first
    merged = {}  # group's first member -> (fused node, port ids of its surviving legs)
    for group in groups:
        members = [index[m] for m in group]
        r = members[0]
        label = _fold([nodes[i].label for i in members])
        ins, outs = [], []
        for i in members:
            f, n_ins = first[i], nodes[i].ins
            for p in range(f, first[i + 1]):
                j = d.owner(far[p])
                if j == i or root.get(j) != r:
                    (ins if p - f < n_ins else outs).append(p)
        node = Node(group[0], nodes[r].kind, label, len(ins), len(outs))
        merged[r] = (node, ins + outs)

    new_id = [-1] * len(far)  # port id in the fused diagram; -1 for a consumed leg
    kept, k = [], 0
    for i, n in enumerate(nodes):
        if i in merged:
            n, legs = merged[i]
        elif i in root:
            continue
        else:
            legs = range(first[i], first[i + 1])
        kept.append(n)
        for p in legs:
            new_id[p] = k
            k += 1
    for p in range(first[-1], len(far)):
        new_id[p] = k
        k += 1
    return kept, [(new_id[p], new_id[q]) for p, q in enumerate(far) if p < q and new_id[p] >= 0]


def identity_removal(d: Diagram, node_id) -> Diagram:
    """Delete a total-angle-zero spider with one input and one output leg,
    joining the far ends of its two wires."""
    if not d.has_node(node_id):
        raise NotIdentity(f"no node {node_id!r}")
    node = d.node(node_id)
    if not node.is_spider():
        raise NotIdentity("identity removal applies to spiders")
    if (node.ins, node.outs) != (1, 1):
        raise NotIdentity("identity spider needs one input leg and one output leg")
    if not node_total_angle(node).is_zero():
        raise NotIdentity(f"spider {node_id!r} has nonzero total angle")

    p = d.first[d.index[node_id]]
    a, b = d.far[p], d.far[p + 1]
    if a == p + 1:
        # A self-loop: removing it would leave a free-floating circle scalar,
        # which the wire model cannot represent.
        raise NotIdentity("cannot splice a self-loop")
    j = d.owner(a)
    if j < len(d.nodes) and d.nodes[j].kind == dg.H and d.owner(b) == j:
        raise NotIdentity(f"splicing would leave a self-loop on Hadamard node {d.nodes[j].id!r}")
    # The spider's two ports go, so every later port id drops by two.
    legs = (p, p + 1)
    wires = [(q, r) for q, r in enumerate(d.far) if q < r and q not in legs and r not in legs]
    wires.append((a, b))
    wires = [(q - 2 * (q > p), r - 2 * (r > p)) for q, r in wires]
    nodes = [n for n in d.nodes if n.id != node_id]
    return build(nodes, wires, d.n_inputs, d.n_outputs)


def _fresh_ids(d: Diagram, prefix: str, count: int) -> list[str]:
    taken = {n.id for n in d.nodes}
    out, i = [], 0
    while len(out) < count:
        cand = f"{prefix}{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def color_change(d: Diagram, node_id) -> Diagram:
    """Flip a spider's color, inserting a Hadamard node on every leg.

    The label (a, alpha, k) is preserved, which keeps the matrix.  The
    Hadamard nodes take fresh ids h0, h1, ... in the order of the legs'
    wires, by lower port id; each one's port 0 takes over its leg's wire
    and its port 1 is wired to the leg.
    """
    if not d.has_node(node_id):
        raise ColorMismatch(f"no node {node_id!r}")
    node = d.node(node_id)
    if not node.is_spider():
        raise ColorMismatch("color change applies to spiders")
    flipped = Node(
        node_id, dg.X if node.kind == dg.Z else dg.Z, node.label, node.ins, node.outs
    )
    f = d.first[d.index[node_id]]
    legs = sorted(range(f, f + node.degree), key=lambda p: min(p, d.far[p]))  # a loop's by port
    hs = [Node(hid, dg.H, None, 1, 1) for hid in _fresh_ids(d, "h", len(legs))]

    nodes = sorted(
        [flipped if n.id == node_id else n for n in d.nodes] + hs, key=lambda n: dg._id_key(n.id)
    )
    start, k = {}, 0  # node id -> its first port id in the result
    for n in nodes:
        start[n.id] = k
        k += n.degree
    new_id = [start[n.id] + port for n in d.nodes for port in range(n.degree)]
    new_id += range(k, k + d.n_inputs + d.n_outputs)
    for p, h in zip(legs, hs):
        new_id[p] = start[h.id]
    wires = [(new_id[p], new_id[q]) for p, q in enumerate(d.far) if p < q]
    wires += [(start[h.id] + 1, start[node_id] + p - f) for p, h in zip(legs, hs)]
    return build(nodes, wires, d.n_inputs, d.n_outputs)


def _canonical(label: SpiderLabel, in_arity: int, out_arity: int) -> CanonicalLabel:
    """CanonicalLabel of a region whose spiders fuse to ``label``.

    The grid is taken as it is: GRID_ORDER_CAP bounds only the lcm
    refinements of fusion, so a lone spider keeps its own grid whatever its
    size.
    """
    turns = total_angle(label).turns
    return CanonicalLabel(
        L=label.grid,
        theta=TotalAngle(turns),
        in_arity=in_arity,
        out_arity=out_arity,
        on_grid=turns.is_grid_compliant(label.grid),
        winding_sum=label.winding,
    )


def canonical_label(labels) -> CanonicalLabel:
    """Label-level normal form of a non-empty same-color region, with zero
    arities.

    L is the LCM of all grid orders and theta the exact sum of total angles
    mod one turn; both are independent of enumeration order.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("canonical_label needs at least one spider label")
    return _canonical(_fold(labels), 0, 0)


def wzcc_normalize(d: Diagram) -> tuple[Diagram, list[CanonicalLabel], RewriteTrace]:
    """Collapse every maximal monochrome region to one canonical spider.

    All regions are fused in one ``_fuse_groups`` call and one ``build``,
    each in ``diagram.region_orders`` order, which is the order pairwise
    fusion would absorb its spiders; per region, the trace records those
    pairwise fusions, then the label normalization.

    Returns the normalized diagram, one CanonicalLabel per region (ordered by
    the smallest node id in the region) and the replayable trace.  Hadamard
    nodes and wiring between regions are untouched; the result is idempotent
    under repeated normalization.
    """
    orders = dg.region_orders(d)
    nodes, wires = _fuse_groups(d, [o for o in orders if len(o) > 1])
    by_id = {n.id: n for n in nodes}
    trace = RewriteTrace()
    labels: list[CanonicalLabel] = []
    for order in orders:
        rep = order[0]
        for v in order[1:]:
            trace.append(TraceEntry("fuse", (rep, v), (rep,)))
        node = by_id[rep]
        canon = SpiderLabel(node.label.grid, node_total_angle(node).turns, RationalAngle(0))
        if canon != node.label:
            by_id[rep] = Node(rep, node.kind, canon, node.ins, node.outs)
            trace.append(
                TraceEntry(
                    "normalize-label", (rep,), (rep,), {"label": canon.to_json()}
                )
            )
        labels.append(_canonical(node.label, node.ins, node.outs))
    return build(by_id.values(), wires, d.n_inputs, d.n_outputs), labels, trace


class _FusionRun:
    """Pairwise fusions and label replacements on one diagram, checked one
    step at a time and applied together with one ``_fuse_groups`` call and
    one ``build``.

    Each survivor keeps its group's members in absorption order (itself,
    then each absorbed group's list in turn), and each absorbed spider its
    survivor, so one list serves the connectivity check and the fusion.
    Each step is checked against the state the steps before it left, so it
    fails exactly where stepwise rewriting would: an absorbed spider is
    gone, a survivor is wired to whatever its group is wired to, and its lcm
    grid is folded under the cap as each spider joins.  A step that fails
    leaves the run as it was.  A relabelled spider must not be fused later
    in the same run; start a new run instead.
    """

    def __init__(self, d: Diagram) -> None:
        self.d = d
        self.adjacent = dg._adjacency(d)  # position -> same-color neighbours' positions
        self.groups: dict = {}  # survivor -> its group's members, in absorption order
        self.survivor: dict = {}  # absorbed spider -> the survivor of its group
        self.grid: dict = {}  # survivor -> lcm grid of its group
        self.labels: dict = {}  # node id -> replacement label

    def _alive(self, nid) -> bool:
        return self.d.has_node(nid) and self.survivor.get(nid, nid) == nid

    def fuse(self, u, v) -> None:
        """Absorb v's group into u's group."""
        if u == v or not (self._alive(u) and self._alive(v)):
            raise NotConnected(f"cannot fuse {u!r} with {v!r}")
        nu, nv = self.d.node(u), self.d.node(v)
        if not (nu.is_spider() and nv.is_spider()):
            raise ColorMismatch("fusion applies to spiders only")
        if nu.kind != nv.kind:
            raise ColorMismatch(f"color mismatch: {nu.kind} vs {nv.kind}")
        nodes, index = self.d.nodes, self.d.index
        group = self.groups.get(v, [v])
        if not any(
            self.survivor.get(nodes[j].id, nodes[j].id) == u
            for m in group
            for j in self.adjacent[index[m]]
        ):
            raise NotConnected(f"{u!r} and {v!r} share no wire")
        self.grid[u] = lcm_order(self.grid.get(u, nu.label.grid), self.grid.get(v, nv.label.grid))
        self.groups.pop(v, None)
        self.groups.setdefault(u, [u]).extend(group)
        for m in group:
            self.survivor[m] = u

    def relabel(self, nid, label: SpiderLabel) -> None:
        """Replace a live node's label."""
        if not self._alive(nid):
            raise KeyError(nid)  # as Diagram.node does for an id it lacks
        node = self.d.node(nid)
        Node(nid, node.kind, label, node.ins, node.outs)  # rejects Hadamard nodes
        self.labels[nid] = label

    def diagram(self) -> Diagram:
        if not (self.groups or self.labels):
            return self.d
        nodes, wires = _fuse_groups(self.d, list(self.groups.values()))
        nodes = [
            Node(n.id, n.kind, self.labels[n.id], n.ins, n.outs) if n.id in self.labels else n
            for n in nodes
        ]
        return build(nodes, wires, self.d.n_inputs, self.d.n_outputs)


def apply_trace(d: Diagram, trace: RewriteTrace) -> Diagram:
    """Replay a trace on a diagram, reproducing the recorded rewrite.

    Each maximal run of ``fuse`` and ``normalize-label`` entries is applied
    with one ``_fuse_groups`` call and one ``build``, so replay is linear in
    the number of entries; a ``fuse`` touching a spider relabelled earlier in
    the run starts a new run, so it sees the new label.  ``identity-removal``
    and ``color-change`` apply one entry at a time.  Every entry is checked
    in trace order against the state all earlier entries left: a ``fuse``
    of [u, v] must produce [u] and needs two live spiders of one color whose
    groups share a wire and whose lcm grid stays under GRID_ORDER_CAP; a
    ``normalize-label`` must produce what it consumes and needs a live node
    that accepts the label.  The first entry that fails raises
    TraceReplayError naming it, or, when it passes a resource cap, the cap's
    own error (GridOverflow) with the same message.
    """
    run = _FusionRun(d)
    for entry in trace.entries:
        try:
            if entry.rule == "fuse":
                u, v = entry.consumed
                if entry.produced != (u,):
                    raise ValueError(f"a fuse produces {[u]}")
                if u in run.labels or v in run.labels:
                    run = _FusionRun(run.diagram())
                run.fuse(u, v)
            elif entry.rule == "normalize-label":
                (nid,) = entry.consumed
                if entry.produced != (nid,):
                    raise ValueError(f"a normalize-label produces {[nid]}")
                run.relabel(nid, SpiderLabel.from_json(entry.detail["label"]))
            elif entry.rule == "identity-removal":
                (nid,) = entry.consumed
                run = _FusionRun(identity_removal(run.diagram(), nid))
            elif entry.rule == "color-change":
                (nid,) = entry.consumed
                run = _FusionRun(color_change(run.diagram(), nid))
            else:
                raise TraceReplayError(f"unknown rule {entry.rule!r}")
        except TraceReplayError:
            raise
        except ResourceCapError as exc:
            raise type(exc)(f"trace entry {entry} failed: {exc}") from exc
        except Exception as exc:
            raise TraceReplayError(f"trace entry {entry} failed: {exc}") from exc
    return run.diagram()
