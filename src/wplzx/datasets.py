"""Seeded corpus generators and circuit/diagram conversion.

Two dataset families: random layered diagrams with heterogeneous grid orders
(planar by construction: spiders attach to one or two adjacent rails, never
crossing within a layer) and hardware-efficient-ansatz style layered circuits
(per-layer single-qubit rotations followed by a nearest-neighbor CX chain).

Each family has two parameter conventions in circulation, so both ship as
named presets: d1-main/d1-appendix pick the grid whitelist and spider range,
d2-main/d2-appendix pick RY/RZ vs RX/RZ rotation layers.

Circuit text format: a ``qubits N`` header with N >= 0, then one gate per
line, angles either exact turns ``3/8`` (nonzero denominator) or finite
float radians, e.g.::

    qubits 2
    RZ q0 3/8
    RY q1 1.1780972451
    CX q0 q1
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import diagram as dg
from .diagram import BoundaryPort, Diagram, Node, NodePort, Wire, build
from .errors import ConfigInvalid, NotCircuitLike, ParseError, UnsupportedGate
from .phase import RationalAngle, SpiderLabel, snap_to_grid
from .rewrite import node_total_angle
from .rng import trial_stream

RZ, RX, RY, HGATE, CX = "RZ", "RX", "RY", "H", "CX"
ROTATIONS = (RZ, RX, RY)
TURN = 2.0 * math.pi

QUARTER = RationalAngle(1, 4)


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: RationalAngle | float | None = None  # RationalAngle = exact turns, float = radians

    def angle_radians(self) -> float:
        if self.angle is None:
            raise ValueError(f"{self.name} carries no angle")
        if isinstance(self.angle, RationalAngle):
            return self.angle.radians()
        return float(self.angle)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ConfigInvalid(f"qubit count must be >= 0, got {self.n_qubits}")
        for g in self.gates:
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise ConfigInvalid(f"gate {g} references qubit outside register")
            if g.name == CX and g.qubits[0] == g.qubits[1]:
                raise ConfigInvalid("CX control and target must differ")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == CX)


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        qs = " ".join(f"q{q}" for q in g.qubits)
        if g.angle is None:
            lines.append(f"{g.name} {qs}")
        elif isinstance(g.angle, RationalAngle):
            lines.append(f"{g.name} {qs} {g.angle.num}/{g.angle.den}")
        else:
            lines.append(f"{g.name} {qs} {g.angle!r}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    # (1-based line number, text) of each line that is not blank or a comment
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0][1].startswith("qubits "):
        raise ParseError("circuit file must start with a 'qubits N' header")
    header_no, header = lines[0]
    try:
        _, count = header.split()
        n = int(count)
    except ValueError as exc:
        raise ParseError(f"line {header_no}: bad qubits header: {header!r}") from exc
    if n < 0:
        raise ParseError(f"line {header_no}: qubit count must be >= 0, got {n}")
    gates = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        name = parts[0]
        try:
            if name == CX:
                if len(parts) != 3:
                    raise ValueError("CX needs two qubits")
                qubits = (_parse_q(parts[1], n), _parse_q(parts[2], n))
                if qubits[0] == qubits[1]:
                    raise ValueError("CX control and target must differ")
                gates.append(Gate(CX, qubits))
            elif name == HGATE:
                if len(parts) != 2:
                    raise ValueError("H needs one qubit")
                gates.append(Gate(HGATE, (_parse_q(parts[1], n),)))
            elif name in ROTATIONS:
                if len(parts) != 3:
                    raise ValueError(f"{name} needs a qubit and an angle")
                gates.append(Gate(name, (_parse_q(parts[1], n),), _parse_angle(parts[2])))
            else:
                raise ValueError(f"unknown gate {name!r}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return Circuit(n, tuple(gates))


def _parse_q(tok: str, n: int) -> int:
    """The qubit k of a token ``q<k>``, checked against the n-qubit register."""
    k = tok[1:]
    if not (tok.startswith("q") and k.isascii() and k.isdigit()):
        raise ValueError(f"bad qubit token {tok!r}")
    if int(k) >= n:
        raise ValueError(f"qubit {tok!r} is outside the {n}-qubit register")
    return int(k)


def _parse_angle(tok: str):
    num, slash, den = tok.partition("/")
    try:
        theta = RationalAngle(int(num), int(den)) if slash else float(tok)
    except ValueError:
        raise ValueError(f"bad angle {tok!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"angle {tok!r} has a zero denominator") from None
    if not slash and not math.isfinite(theta):
        raise ValueError(f"angle {tok!r} is not finite")
    return theta


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    spiders_min: int = 30
    spiders_max: int = 300
    grid_orders: tuple[int, ...] = (1, 2, 3, 4, 6, 8)
    density: float = 0.5
    qubits: int = 4
    layers: int = 4
    rotation_basis: tuple[str, str] = (RY, RZ)

    def __post_init__(self) -> None:
        if self.spiders_min < 1 or self.spiders_max < self.spiders_min:
            raise ConfigInvalid("spider count range is empty")
        if not self.grid_orders or any(a < 1 for a in self.grid_orders):
            raise ConfigInvalid("grid order whitelist must be non-empty positives")
        if not 0.0 < self.density <= 1.0:
            raise ConfigInvalid("density must lie in (0, 1]")
        if self.qubits < 1 or self.layers < 1:
            raise ConfigInvalid("qubits and layers must be >= 1")
        for r in self.rotation_basis:
            if r not in ROTATIONS:
                raise ConfigInvalid(f"unknown rotation {r!r}")


PRESETS = {
    "d1-main": GenConfig(grid_orders=(1, 2, 3, 4, 6, 8), spiders_min=30, spiders_max=300),
    "d1-appendix": GenConfig(grid_orders=(4, 6, 8, 12), spiders_min=30, spiders_max=120),
    "d2-main": GenConfig(rotation_basis=(RY, RZ)),
    "d2-appendix": GenConfig(rotation_basis=(RX, RZ)),
}


def preset(name: str, **overrides) -> GenConfig:
    if name.startswith("d3"):
        raise ConfigInvalid(
            "d3 (hardware-calibrated circuits) is not generatable: it requires "
            "device calibration data that this package does not model"
        )
    if name not in PRESETS:
        raise ConfigInvalid(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    return replace(PRESETS[name], **overrides)


def gen_random_wplzx(cfg: GenConfig, instance: int = 0) -> Diagram:
    """Random layered diagram on ``cfg.qubits`` rails, deterministic per
    (seed, instance).

    Every spider label is drawn on its own grid (alpha = n/a turns, integer
    winding in [0, a)), so generated diagrams are grid-compliant by
    construction.
    """
    rng = trial_stream(cfg.seed, instance)
    q = cfg.qubits
    n_spiders = int(rng.integers(cfg.spiders_min, cfg.spiders_max + 1))
    frontier: list = [BoundaryPort(dg.IN, i) for i in range(q)]
    nodes: list[Node] = []
    wires: list[Wire] = []
    orders = tuple(cfg.grid_orders)
    for step in range(n_spiders):
        rail = int(rng.integers(0, q))
        rails = [rail]
        if q > 1 and rng.random() < cfg.density:
            other = rail + 1 if rail + 1 < q else rail - 1
            rails = sorted((rail, other))
        kind = dg.Z if rng.random() < 0.5 else dg.X
        a = int(orders[int(rng.integers(0, len(orders)))])
        alpha = RationalAngle(int(rng.integers(0, a)), a)
        winding = RationalAngle(int(rng.integers(0, a)), 1)
        m = len(rails)
        nodes.append(Node(step, kind, SpiderLabel(a, alpha, winding), m, m))
        for slot, r in enumerate(rails):
            wires.append(Wire(frontier[r], NodePort(step, slot)))
            frontier[r] = NodePort(step, m + slot)
    for i in range(q):
        wires.append(Wire(frontier[i], BoundaryPort(dg.OUT, i)))
    return build(nodes, wires, q, q)


def gen_hea(cfg: GenConfig, instance: int = 0) -> Circuit:
    """Layered ansatz: per-qubit rotations then a CX chain, per layer."""
    if cfg.qubits < 2:
        raise ConfigInvalid("layered circuits need at least 2 qubits")
    rng = trial_stream(cfg.seed, instance)
    first, second = cfg.rotation_basis
    gates: list[Gate] = []
    for _ in range(cfg.layers):
        for qb in range(cfg.qubits):
            gates.append(Gate(first, (qb,), float(rng.random() * TURN)))
            gates.append(Gate(second, (qb,), float(rng.random() * TURN)))
        for qb in range(cfg.qubits - 1):
            gates.append(Gate(CX, (qb, qb + 1)))
    return Circuit(cfg.qubits, tuple(gates))


def _angle_turns(angle, qubit: int, grid_map, snap: bool) -> tuple[int, RationalAngle]:
    """Resolve a gate angle to (grid order, exact turns).

    Snapping projects onto the qubit's grid; otherwise the angle is kept
    exactly (rational turns as-is, floats as their exact dyadic turn value).
    """
    a = int(grid_map(qubit)) if grid_map is not None else 1
    if isinstance(angle, RationalAngle):
        if snap:
            return a, snap_to_grid(angle.radians(), a)
        return a, angle
    theta = float(angle)
    if snap:
        return a, snap_to_grid(theta, a)
    return a, RationalAngle.from_float(theta / TURN)


def circuit_to_diagram(c: Circuit, grid_map=None, snap: bool = False) -> Diagram:
    """Translate a gate list into a diagram.

    RZ/RX become 1-1 spiders, RY the usual Z(-1/4 turn) X(theta) Z(1/4 turn)
    chain, H a Hadamard node and CX the connected Z(1-2)/X(2-1) pair (equal
    to CNOT up to a scalar).  ``grid_map: qubit -> grid order`` plus ``snap``
    control whether angles are projected onto hardware grids.
    """
    frontier: list = [BoundaryPort(dg.IN, i) for i in range(c.n_qubits)]
    nodes: list[Node] = []
    wires: list[Wire] = []
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def put_single(kind: str, qubit: int, a: int, alpha: RationalAngle) -> None:
        nid = fresh()
        nodes.append(Node(nid, kind, SpiderLabel(a, alpha), 1, 1))
        wires.append(Wire(frontier[qubit], NodePort(nid, 0)))
        frontier[qubit] = NodePort(nid, 1)

    for g in c.gates:
        if g.name == RZ:
            a, alpha = _angle_turns(g.angle, g.qubits[0], grid_map, snap)
            put_single(dg.Z, g.qubits[0], a, alpha)
        elif g.name == RX:
            a, alpha = _angle_turns(g.angle, g.qubits[0], grid_map, snap)
            put_single(dg.X, g.qubits[0], a, alpha)
        elif g.name == RY:
            qb = g.qubits[0]
            a, alpha = _angle_turns(g.angle, qb, grid_map, snap)
            put_single(dg.Z, qb, 1, -QUARTER)
            put_single(dg.X, qb, a, alpha)
            put_single(dg.Z, qb, 1, QUARTER)
        elif g.name == HGATE:
            nid = fresh()
            nodes.append(Node(nid, dg.H, None, 1, 1))
            wires.append(Wire(frontier[g.qubits[0]], NodePort(nid, 0)))
            frontier[g.qubits[0]] = NodePort(nid, 1)
        elif g.name == CX:
            ctrl_q, tgt_q = g.qubits
            ctrl, tgt = fresh(), fresh()
            nodes.append(Node(ctrl, dg.Z, SpiderLabel(1), 1, 2))
            nodes.append(Node(tgt, dg.X, SpiderLabel(1), 2, 1))
            wires.append(Wire(frontier[ctrl_q], NodePort(ctrl, 0)))
            wires.append(Wire(frontier[tgt_q], NodePort(tgt, 0)))
            wires.append(Wire(NodePort(ctrl, 2), NodePort(tgt, 1)))
            frontier[ctrl_q] = NodePort(ctrl, 1)
            frontier[tgt_q] = NodePort(tgt, 2)
        else:
            raise UnsupportedGate(f"cannot translate gate {g.name!r}")
    for i in range(c.n_qubits):
        wires.append(Wire(frontier[i], BoundaryPort(dg.OUT, i)))
    return build(nodes, wires, c.n_qubits, c.n_qubits)


def diagram_to_circuit(d: Diagram) -> Circuit:
    """Restricted inverse of circuit_to_diagram.

    Handles 1-1 spiders, Hadamard nodes and (possibly phase-carrying)
    Z(1-2)/X(2-1) CX gadgets; anything else raises NotCircuitLike.  On the
    image of circuit_to_diagram (also after normalization of such diagrams)
    the round trip preserves the unitary up to a global scalar.
    """
    if d.n_inputs != d.n_outputs:
        raise NotCircuitLike("diagram has unequal input/output counts")
    nq = d.n_inputs
    nodes, first, far = d.nodes, d.first, d.far
    out_slot = first[-1] + nq  # port id of output slot 0
    # Each rail's frontier is the port id its next wire enters.
    frontier = [far[first[-1] + i] for i in range(nq)]
    done = [False] * nq
    gates: list[Gate] = []

    def emit_rotation(kind: str, qubit: int, node) -> None:
        theta = node_total_angle(node)
        if not theta.is_zero():
            gates.append(Gate(RZ if kind == dg.Z else RX, (qubit,), theta.turns))

    while not all(done):
        progressed = False
        for qb in range(nq):
            if done[qb]:
                continue
            p = frontier[qb]
            if p >= first[-1]:
                if p != out_slot + qb:
                    raise NotCircuitLike("wires permute the boundary ordering")
                done[qb] = True
                progressed = True
                continue
            i = d.owner(p)
            node, port = nodes[i], p - first[i]
            if node.kind == dg.H:
                gates.append(Gate(HGATE, (qb,)))
                frontier[qb] = far[first[i] + 1 - port]
                progressed = True
            elif (node.ins, node.outs) == (1, 1):
                if port != 0:
                    raise NotCircuitLike(f"entered 1-1 spider {node.id!r} backwards")
                emit_rotation(node.kind, qb, node)
                frontier[qb] = far[first[i] + 1]
                progressed = True
            elif node.kind == dg.Z and (node.ins, node.outs) == (1, 2) and port == 0:
                hit = _try_emit_cx(d, frontier, qb, i, gates, emit_rotation)
                progressed = progressed or hit
            elif node.kind == dg.X and (node.ins, node.outs) == (2, 1):
                continue  # resolved from the control side
            else:
                raise NotCircuitLike(
                    f"spider {node.id!r} with arity {node.ins}-{node.outs} "
                    "is outside the extractable fragment"
                )
        if not progressed:
            raise NotCircuitLike("extraction deadlocked (entangled wiring pattern)")
    return Circuit(nq, tuple(gates))


def _try_emit_cx(d, frontier, ctrl_q, c, gates, emit_rotation) -> bool:
    """Try to resolve the Z(1-2) control at ``d.nodes[c]``; returns True when
    the CX was emitted."""
    nodes, first, far = d.nodes, d.first, d.far
    ctrl = nodes[c]
    partners = []
    for port in (1, 2):
        q = far[first[c] + port]
        t = d.owner(q)
        if t < len(nodes):
            cand = nodes[t]
            if cand.kind == dg.X and (cand.ins, cand.outs) == (2, 1) and q - first[t] in (0, 1):
                partners.append((port, q - first[t], t))
    # Exactly one output leg must feed an X(2-1) target.
    if len(partners) != 1:
        raise NotCircuitLike(f"Z(1-2) spider {ctrl.id!r} is not a CX control")
    bridge_port, far_port, t = partners[0]
    rail_port = 3 - bridge_port
    tgt_rail_in = first[t] + 1 - far_port
    if tgt_rail_in not in frontier:
        return False  # target rail not there yet; retry next sweep
    tgt_q = frontier.index(tgt_rail_in)
    emit_rotation(dg.Z, ctrl_q, ctrl)
    gates.append(Gate(CX, (ctrl_q, tgt_q)))
    emit_rotation(dg.X, tgt_q, nodes[t])
    frontier[ctrl_q] = far[first[c] + rail_port]
    frontier[tgt_q] = far[first[t] + 2]
    return True


def snapped_phases(c: Circuit, grid_map) -> tuple[list[float], list[float]]:
    """(raw, snapped) rotation angle lists in radians, for alignment metrics."""
    raw, snapped = [], []
    for g in c.gates:
        if g.name not in ROTATIONS:
            continue
        theta = g.angle_radians()
        raw.append(theta)
        snapped.append(snap_to_grid(theta, int(grid_map(g.qubits[0]))).radians())
    return raw, snapped
